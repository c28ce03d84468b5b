package loadgen_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// newFleet starts n daemons that each own a hash slice of the
// keyspace, fully meshed on both planes (protocol TCP + /v1/stage
// HTTP), and returns them with their names.
func newFleet(t *testing.T, n int, mutate func(i int, cfg *server.Config)) ([]*server.Server, []string) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("F%d", i+1)
	}
	smap := "hash:" + strings.Join(names, ",")
	fleet := make([]*server.Server, n)
	for i, name := range names {
		cfg := server.Config{
			Name:          name,
			ShardMap:      smap,
			AuditInterval: 50 * time.Millisecond,
			MaxInflight:   128,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fleet[i] = s
	}
	for i, s := range fleet {
		for j, p := range fleet {
			if i == j {
				continue
			}
			s.RegisterPeer(names[j], p.ProtoAddr())
			s.RegisterPeerHTTP(names[j], "http://"+p.HTTPAddr())
		}
	}
	return fleet, names
}

// startRouter bootstraps a routing tier from the fleet's first member
// and serves it over a test listener.
func startRouter(t *testing.T, fleet []*server.Server, pick router.Pick) string {
	t.Helper()
	r, err := router.New(context.Background(), router.Config{
		Seeds: []string{"http://" + fleet[0].HTTPAddr()},
		Pick:  pick,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// drainAndAudit polls every node until its cost ledger is empty and
// its accumulated audit is exactly conformant.
func drainAndAudit(t *testing.T, fleet []*server.Server, names []string) {
	t.Helper()
	for i, s := range fleet {
		deadline := time.Now().Add(10 * time.Second)
		for {
			rep := s.AuditNow()
			if !rep.OK() {
				t.Fatalf("%s: audit violation: %s", names[i], rep)
			}
			acc, _ := s.AuditReport()
			if s.Registry().CostLedgerSize() == 0 && acc.Exact == acc.Checked && acc.Checked > 0 {
				break
			}
			if time.Now().After(deadline) {
				for _, v := range s.Registry().CostSnapshot() {
					if v.Closed() {
						continue
					}
					t.Logf("%s: open ledger entry tx=%s variant=%s subs=%d outcome=%q", names[i], v.Tx, v.Variant, v.Subs, v.Outcome)
					for _, nc := range v.Nodes {
						t.Logf("  node=%s role=%v done=%v counters=%+v", nc.Name, nc.Role, nc.Done, nc.CostCounters)
					}
				}
				t.Fatalf("%s: ledger still open (%d) or inexact (report %s)",
					names[i], s.Registry().CostLedgerSize(), acc)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !s.Healthy() {
			t.Fatalf("%s: unhealthy after a clean run", names[i])
		}
	}
}

// TestFleetRouterEndToEnd is the cluster-scale serving exercise: a
// three-shard fleet behind the routing tier, multi-shard zipf traffic
// under every protocol variant, and the conformance audit — scraped
// over /metrics like an operator would — exactly conformant on every
// node.
func TestFleetRouterEndToEnd(t *testing.T) {
	fleet, names := newFleet(t, 3, nil)
	routerURL := startRouter(t, fleet, router.PickFirstShard)

	totalCommitted := 0
	for _, variant := range []string{"basic", "pa", "pn", "pc", "1pc"} {
		profile := workload.Profile{
			Kind:   workload.KindHotkey,
			Keys:   512,
			FanOut: 3,
			ZipfS:  1.2,
			Seed:   7,
		}
		res := loadgen.Run(context.Background(), &loadgen.HTTPCommitter{
			BaseURL: routerURL,
			Variant: variant,
		}, loadgen.Config{
			Rate:     300,
			Duration: 250 * time.Millisecond,
			Workers:  24,
			TxPrefix: "fleet-" + variant,
			Ops:      profile.Generator(),
		})
		if res.Errors > 0 {
			t.Fatalf("%s: %d errors, first: %s (result %+v)", variant, res.Errors, res.FirstErr, res)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed (result %+v)", variant, res)
		}
		totalCommitted += res.Committed
	}

	drainAndAudit(t, fleet, names)

	// The fleet's coordinator-side outcome tallies must account for
	// every committed transaction exactly once, and every node must
	// scrape clean with staged data-plane traffic.
	committedAcrossFleet := 0
	stagedNodes := 0
	for i, s := range fleet {
		resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics := string(body)
		if !strings.Contains(metrics, "twopc_audit_violations_total 0") {
			t.Errorf("%s: /metrics reports violations", names[i])
		}
		var staged int
		for _, line := range strings.Split(metrics, "\n") {
			if n, err := fmt.Sscanf(line, "twopc_stage_ops_total %d", &staged); n == 1 && err == nil {
				break
			}
		}
		if staged > 0 {
			stagedNodes++
		}
		snap := s.Registry().Snapshot()
		committedAcrossFleet += snap.Outcomes["committed"]
	}
	if committedAcrossFleet != totalCommitted {
		t.Errorf("fleet outcome tallies %d, loadgen committed %d", committedAcrossFleet, totalCommitted)
	}
	if stagedNodes != len(fleet) {
		t.Errorf("only %d/%d nodes staged ops; shard spread broken", stagedNodes, len(fleet))
	}
}

// TestFleetHotkeyContention drives a severely skewed workload at a
// fleet with a small keyspace and a short stage timeout: transactions
// queue on the hot keys' lock manager, the queue's losers (deadlock
// victims and stage timeouts) abort before phase one, and the
// conformance audit stays exact throughout — contention degrades
// throughput, never protocol conformance.
func TestFleetHotkeyContention(t *testing.T) {
	const stageTimeout = 50 * time.Millisecond
	fleet, names := newFleet(t, 3, func(i int, cfg *server.Config) {
		// A short staging deadline turns long lock-queue waits into
		// visible aborts instead of silent queueing.
		cfg.StageTimeout = stageTimeout
	})
	routerURL := startRouter(t, fleet, router.PickLeastLoaded)

	profile := workload.Profile{
		Kind:   workload.KindHotkey,
		Keys:   6, // six keys across three shards: every tx collides
		FanOut: 2,
		ZipfS:  2.5,
		Seed:   11,
	}
	// A holder transaction stages the hottest key (zipf rank 0) before
	// the storm and keeps it until a waiter has queued behind it for
	// twice the stage deadline. That waiter's stage times out however
	// fast the host serves, so the lock queue is certain to produce an
	// abort, and the rest of the storm can still commit.
	smap, err := router.Parse("hash:" + strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	const hotKey = "k000000"
	var hotStore *kvstore.Store
	for i, name := range names {
		if name == smap.Owner(hotKey) {
			hotStore = fleet[i].Store()
		}
	}
	holder := protocol.TxID{Origin: "holder", Seq: 1}
	if err := hotStore.Put(context.Background(), holder, hotKey, "held"); err != nil {
		t.Fatal(err)
	}
	stormDone := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		for hotStore.Locks().WaiterCount(hotKey) == 0 {
			select {
			case <-stormDone:
				holderDone <- hotStore.Abort(holder)
				return
			case <-time.After(time.Millisecond):
			}
		}
		time.Sleep(2 * stageTimeout)
		holderDone <- hotStore.Abort(holder)
	}()
	// The offered rate far exceeds what a serialized hot key can
	// absorb, so the open loop piles arrivals onto the lock queue.
	res := loadgen.Run(context.Background(), &loadgen.HTTPCommitter{
		BaseURL: routerURL,
		Variant: "pa",
	}, loadgen.Config{
		Rate:     3000,
		Duration: 400 * time.Millisecond,
		Workers:  48,
		TxPrefix: "hot",
		Ops:      profile.Generator(),
	})
	close(stormDone)
	if err := <-holderDone; err != nil {
		t.Fatalf("aborting the holder: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors, first: %s (result %+v)", res.Errors, res.FirstErr, res)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed under contention (result %+v)", res)
	}
	if res.Aborted == 0 {
		t.Fatalf("no aborts under a 6-key zipf storm — lock queue not exercised (result %+v)", res)
	}
	t.Logf("contention: %d committed, %d aborted, %d shed", res.Committed, res.Aborted, res.Shed)

	drainAndAudit(t, fleet, names)

	// The hot keys' locks, the holder's included, must all be free
	// again: a fresh transaction can write every key in the keyspace.
	c := &loadgen.HTTPCommitter{BaseURL: routerURL, Variant: "pa"}
	gen := workload.Profile{Kind: workload.KindUniform, Keys: 6, FanOut: 6}.Generator()
	committed, shed, err := c.CommitOps(context.Background(), "post-storm", gen(1))
	if err != nil || shed || !committed {
		t.Fatalf("post-storm full-keyspace write: committed=%v shed=%v err=%v", committed, shed, err)
	}
}

// TestClientSideRouting runs the same fleet without a router tier: the
// shard-aware client fetches /v1/shards itself and goes straight to
// the coordinating shard.
func TestClientSideRouting(t *testing.T) {
	fleet, names := newFleet(t, 3, nil)

	c := &loadgen.HTTPCommitter{BaseURL: "http://" + fleet[1].HTTPAddr(), Variant: "pn"}
	gen := workload.Profile{Kind: workload.KindUniform, Keys: 64, FanOut: 4, Seed: 3}.Generator()
	committedCount := 0
	for seq := 0; seq < 40; seq++ {
		committed, shed, err := c.CommitOps(context.Background(), fmt.Sprintf("direct:%d", seq), gen(seq))
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if !shed && committed {
			committedCount++
		}
	}
	if committedCount == 0 {
		t.Fatal("nothing committed")
	}
	drainAndAudit(t, fleet, names)
}
