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
	benchV1Commit(b, func(ops []api.Op, keys [3]string) {
		ops[0], ops[1], ops[2] = client.Put(keys[0], "v"), client.Put(keys[1], "v"), client.Put(keys[2], "v")
	})
}

// BenchmarkV1CommitReadMostly is the fanout rung's read-mostly twin:
// the same three daemons, one put and two gets per transaction on the
// three shards, so the two shards that only read vote read-only and
// leave at their vote (§4 Read Only). Its forces and flows per commit
// sit below the fanout rung's.
func BenchmarkV1CommitReadMostly(b *testing.B) {
	benchV1Commit(b, func(ops []api.Op, keys [3]string) {
		ops[0], ops[1], ops[2] = client.Put(keys[0], "v"), client.Get(keys[1]), client.Get(keys[2])
	})
}

// benchV1Commit runs the allocation rung: three daemons on a hash
// shard map and one shard-routing client committing the three ops fill
// writes per transaction, given a key on each shard starting from a
// rotating first one (the coordinator rotates with it). It reports the
// protocol logs' forced writes and the protocol messages per commit,
// summed over the three daemons.
func benchV1Commit(b *testing.B, fill func(ops []api.Op, keys [3]string)) {
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
	spent := func() (forced, msgs int) {
		for _, s := range servers {
			for _, nc := range s.reg.Snapshot().Nodes {
				forced += nc.ForcedWrites
				msgs += nc.MessagesSent
			}
		}
		return forced, msgs
	}

	ops := make([]api.Op, len(names))

	forced0, msgs0 := spent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate the first key, and with it the coordinator.
		var k [3]string
		for j := range k {
			k[j] = keys[(i+j)%len(names)][i%perShard]
		}
		fill(ops, k)
		resp, err := c.Commit(ctx, "", ops)
		if err != nil || resp.Outcome != "committed" {
			b.Fatalf("commit %d: resp %+v err %v", i, resp, err)
		}
		if i%256 == 255 {
			audit()
		}
	}
	audit()
	b.StopTimer()
	forced, msgs := spent()
	b.ReportMetric(float64(forced-forced0)/float64(b.N), "forces/commit")
	b.ReportMetric(float64(msgs-msgs0)/float64(b.N), "flows/commit")
}
