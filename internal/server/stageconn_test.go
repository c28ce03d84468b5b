package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

// TestStageConnectionsReused fires two bursts of concurrent cross-shard
// commits through one daemon and counts the TCP connections its
// /v1/stage client dials to the peer. The first burst is held until
// every stage is in flight at once, so it opens one connection per
// commit; all of them must stay pooled, and the second burst must dial
// nothing new.
func TestStageConnectionsReused(t *testing.T) {
	const burst = 8
	const spec = "hash:A,B"
	a, err := New(Config{Name: "A", ShardMap: spec, AuditInterval: -1, MaxInflight: 2 * burst})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Name: "B", ShardMap: spec, AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, p := range [][2]*Server{{a, b}, {b, a}} {
		p[0].RegisterPeer(p[1].cfg.Name, p[1].ProtoAddr())
		p[0].RegisterPeerHTTP(p[1].cfg.Name, "http://"+p[1].HTTPAddr())
	}

	var dials atomic.Int64
	tr := a.httpc.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}

	smap, err := router.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	keysOf := func(owner string, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if k := fmt.Sprintf("k%d", i); smap.Owner(k) == owner {
				out = append(out, k)
			}
		}
		return out
	}
	aKeys, bKeys := keysOf("A", 2*burst), keysOf("B", 2*burst+1)
	hot := bKeys[2*burst] // the first burst queues on it at B

	fire := func(round int, keyB func(i int) string) {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := commitJSON(t, api.CommitRequest{Ops: []api.Op{
					{Key: aKeys[round*burst+i], Op: api.OpPut, Value: "v"},
					{Key: keyB(i), Op: api.OpPut, Value: "v"},
				}})
				resp, err := http.Post("http://"+a.HTTPAddr()+api.PathCommit, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("round %d commit %d: status %d", round, i, resp.StatusCode)
				}
			}(i)
		}
		wg.Wait()
	}
	stage := func(body string) {
		resp, err := http.Post("http://"+b.HTTPAddr()+api.PathStage, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stage %s: status %d", body, resp.StatusCode)
		}
	}

	// Burst one: a blocker holds the hot key at B, so every commit's
	// stage waits there with its connection open until all are queued.
	stage(fmt.Sprintf(`{"tx":"blocker","ops":[{"key":%q,"op":"put","value":"x"}]}`, hot))
	done := make(chan struct{})
	go func() {
		defer close(done)
		fire(0, func(int) string { return hot })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Store().Locks().WaiterCount(hot) < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d stages queued at B", b.Store().Locks().WaiterCount(hot), burst)
		}
		time.Sleep(time.Millisecond)
	}
	stage(`{"tx":"blocker","abort":true}`)
	<-done
	first := dials.Load()
	if first < burst {
		t.Fatalf("first burst dialed %d connections for %d overlapping stages", first, burst)
	}

	fire(1, func(i int) string { return bKeys[i] })
	if extra := dials.Load() - first; extra != 0 {
		t.Fatalf("second burst dialed %d new stage connections; the first burst's %d were not kept idle", extra, first)
	}
}
