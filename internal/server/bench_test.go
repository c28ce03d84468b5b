package server

import (
	"context"
	"fmt"
	"testing"

	"repro/client"
	"repro/internal/api"
	"repro/internal/router"
)

// BenchmarkV1CommitFanout is the serving path's allocation rung below
// perfbench: three in-process daemons on a hash shard map, and one
// client-library client committing three puts per transaction, one on
// each shard, so every commit stages two slices over /v1/stage and
// runs PA over the protocol plane. allocs/op and B/op count the whole
// process, daemons and client alike, including the audit of each
// commit.
func BenchmarkV1CommitFanout(b *testing.B) {
	const spec = "hash:A,B,C"
	names := []string{"A", "B", "C"}
	servers := make([]*Server, len(names))
	for i, n := range names {
		s, err := New(Config{Name: n, ShardMap: spec, AuditInterval: -1, TraceRing: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		servers[i] = s
	}
	for _, s := range servers {
		for j, p := range servers {
			if s != p {
				s.RegisterPeer(names[j], p.ProtoAddr())
				s.RegisterPeerHTTP(names[j], "http://"+p.HTTPAddr())
			}
		}
	}
	smap, err := router.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	const perShard = 1024
	keys := make([][]string, len(names)) // keys[i]: keys names[i] owns
	for k := 0; len(keys[0]) < perShard || len(keys[1]) < perShard || len(keys[2]) < perShard; k++ {
		key := fmt.Sprintf("k%d", k)
		for i, n := range names {
			if smap.Owner(key) == n && len(keys[i]) < perShard {
				keys[i] = append(keys[i], key)
			}
		}
	}
	c := client.New("http://"+servers[0].HTTPAddr(), client.WithShardRouting(), client.WithVariant("pa"))
	ctx := context.Background()
	if err := c.RefreshShards(ctx); err != nil {
		b.Fatal(err)
	}
	audit := func() {
		for _, s := range servers {
			if rep := s.AuditNow(); !rep.OK() {
				b.Fatal(rep)
			}
		}
	}
	ops := make([]api.Op, len(names))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate the first key, and with it the coordinator.
		for j := range ops {
			shard := (i + j) % len(names)
			ops[j] = client.Put(keys[shard][i%perShard], "v")
		}
		resp, err := c.Commit(ctx, "", ops)
		if err != nil || resp.Outcome != "committed" {
			b.Fatalf("commit %d: resp %+v err %v", i, resp, err)
		}
		if i%256 == 255 {
			audit()
		}
	}
	audit()
}
