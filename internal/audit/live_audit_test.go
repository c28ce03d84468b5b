package audit_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// liveCluster is a three-node live cluster whose every node reports
// into one shared registry, so the ledger sees whole transactions.
type liveCluster struct {
	reg      *metrics.Registry
	coord    *live.Participant
	coordLog *wal.Log
}

func newLiveCluster(t *testing.T) *liveCluster {
	t.Helper()
	reg := metrics.New()
	net := netsim.NewChanNetwork()
	coordLog := wal.New(wal.NewMemStore())
	mk := func(name string, log *wal.Log) *live.Participant {
		p := live.NewParticipant(name, net.Endpoint(name), log,
			[]protocol.Resource{protocol.NewStaticResource("r@" + name)},
			live.WithMetrics(reg))
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	c := mk("C", coordLog)
	mk("S1", wal.New(wal.NewMemStore()))
	mk("S2", wal.New(wal.NewMemStore()))
	return &liveCluster{reg: reg, coord: c, coordLog: coordLog}
}

// commit runs n transactions under variant v and fails the test on
// any non-committed outcome.
func (lc *liveCluster) commit(t *testing.T, v protocol.Variant, n int, seq *uint64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		*seq++
		tx := protocol.TxID{Origin: "C", Seq: *seq}.String()
		out, err := lc.coord.CommitVariant(ctx, tx, []string{"S1", "S2"}, v)
		if err != nil || out != live.Committed {
			t.Fatalf("%s commit %s = %v, %v", v, tx, out, err)
		}
	}
}

// drainClosed waits for want transactions to close in the ledger
// (subordinate phase two completes asynchronously after the
// coordinator returns) and drains them.
func drainClosed(t *testing.T, reg *metrics.Registry, want int) []metrics.TxCostView {
	t.Helper()
	var out []metrics.TxCostView
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < want {
		out = append(out, reg.CostDrainClosed()...)
		if len(out) >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d transactions closed: %+v", len(out), want, reg.CostSnapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return out
}

// TestLiveConformanceAllVariants is the tentpole's end-to-end check:
// a real cluster of live participants runs all six variants and the
// measured per-role costs must match the analytic closed forms
// exactly — the paper's Tables 2-4 re-derived from a running system.
func TestLiveConformanceAllVariants(t *testing.T) {
	const perVariant = 5
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC}
	lc := newLiveCluster(t)
	var seq uint64
	for _, v := range variants {
		lc.commit(t, v, perVariant, &seq)
	}
	views := drainClosed(t, lc.reg, perVariant*len(variants))

	rep := audit.Conformance(views)
	if !rep.OK() {
		t.Fatalf("live run violates the analytic model:\n%s", rep)
	}
	wantChecked := perVariant * len(variants) * 3 // C, S1, S2 each
	if rep.Checked != wantChecked || rep.Exact != wantChecked {
		t.Fatalf("checked=%d exact=%d, want %d of each:\n%s", rep.Checked, rep.Exact, wantChecked, rep)
	}

	// Every variant bucket must be present with committed outcomes.
	agg := metrics.AggregateCosts(views)
	for _, v := range variants {
		k := metrics.AggregateCostKey{Variant: v.String(), Role: metrics.RoleCoordinator, Outcome: "committed"}
		b, ok := agg[k]
		if !ok || b.Nodes != perVariant {
			t.Fatalf("aggregate bucket %+v missing or short: %+v", k, agg)
		}
	}
}

// TestLiveConformanceCatchesMisCost proves the audit bites: a spurious
// forced record written on a finished transaction's behalf — a
// mis-costed runtime path — must surface as a violation.
func TestLiveConformanceCatchesMisCost(t *testing.T) {
	lc := newLiveCluster(t)
	var seq uint64
	lc.commit(t, protocol.VariantPA, 1, &seq)

	// Wait for closure but snapshot instead of draining, then damage
	// the coordinator's accounting through its real WAL: the observer
	// wired by live.Start attributes the write to the transaction.
	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		views := lc.reg.CostSnapshot()
		if len(views) == 1 && views[0].Closed() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction never closed: %+v", views)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rep := audit.Conformance(lc.reg.CostSnapshot()); !rep.OK() {
		t.Fatalf("clean run flagged before injection:\n%s", rep)
	}

	if _, err := lc.coordLog.Force(wal.Record{Tx: tx, Node: "C", Kind: "Spurious"}); err != nil {
		t.Fatal(err)
	}
	rep := audit.Conformance(lc.reg.CostSnapshot())
	if rep.OK() {
		t.Fatal("spurious forced write slipped past the audit")
	}
	found := false
	for _, viol := range rep.Violations {
		if viol.Node == "C" && viol.Tx == tx && viol.Measured.Forced == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a coordinator forced-write violation, got:\n%s", rep)
	}
}

// TestLiveConformanceAbortPath drives a no-vote abort under each
// variant and checks the measured spend stays under the abort
// ceilings.
func TestLiveConformanceAbortPath(t *testing.T) {
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC}
	for _, v := range variants {
		t.Run(v.String(), func(t *testing.T) {
			reg := metrics.New()
			net := netsim.NewChanNetwork()
			mk := func(name string, res protocol.Resource) *live.Participant {
				p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
					[]protocol.Resource{res}, live.WithMetrics(reg))
				p.Start()
				t.Cleanup(p.Stop)
				return p
			}
			c := mk("C", protocol.NewStaticResource("rc"))
			mk("S1", protocol.NewStaticResource("r1"))
			mk("S2", protocol.NewStaticResource("r2", protocol.StaticVote(protocol.VoteNo)))

			out, err := c.CommitVariant(context.Background(), "C:1", []string{"S1", "S2"}, v)
			if err != nil || out != live.Aborted {
				t.Fatalf("commit = %v, %v; want aborted", out, err)
			}
			// S1 may or may not have been prepared before the abort
			// raced it; conformance must hold either way without
			// waiting for closure (aborts are ceiling-checked even
			// open).
			deadline := time.Now().Add(300 * time.Millisecond)
			for {
				rep := audit.Conformance(reg.CostSnapshot())
				if !rep.OK() {
					t.Fatalf("abort exceeded the analytic ceiling:\n%s", rep)
				}
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
