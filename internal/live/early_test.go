package live

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestLiveOffPathAckDamage: a subordinate whose resource already took
// the opposite decision heuristically reports damage on its ack. Under
// PA the ack arrives after Commit has returned Committed, so the
// receive loop counts the damage on the coordinator's own registry.
// Under PN the ack is on the caller's path, and Commit returns
// ErrHeuristicDamage.
func TestLiveOffPathAckDamage(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			net := netsim.NewChanNetwork()
			regC := metrics.New()
			coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{protocol.NewStaticResource("rc")}, WithVariant(v), WithMetrics(regC))
			rs := protocol.NewStaticResource("rs")
			sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{rs}, WithVariant(v), WithMetrics(metrics.New()))
			coord.Start()
			sub.Start()
			defer coord.Stop()
			defer sub.Stop()

			// The resource aborts on its own; it still votes yes, and the
			// commit that reaches it conflicts with what it did.
			tx := protocol.TxID{Origin: "C", Seq: 1}
			if err := rs.HeuristicDecide(tx, false); err != nil {
				t.Fatal(err)
			}
			out, err := coord.Commit(context.Background(), tx.String(), []string{"S"})
			if out != Committed {
				t.Fatalf("commit = %v, %v", out, err)
			}
			if v == protocol.VariantPN {
				if !errors.Is(err, ErrHeuristicDamage) {
					t.Fatalf("PN commit error = %v, want ErrHeuristicDamage", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("PA commit error = %v, want none: the ack is off the caller's path", err)
			}
			waitAcked(t, coord)
			if got := regC.Snapshot().Nodes["S"].HeuristicDamage; got != 1 {
				t.Fatalf("coordinator's registry counts %d damaged decisions at S, want 1", got)
			}
		})
	}
}

// TestLiveEarlyAnswerHygiene commits 300 transactions under PA and
// Basic 2PC, whose commit acks are taken after Commit returns, among
// three participants, and checks that nothing is left behind: every
// state table and every pin is empty, and the goroutine count is back
// at its baseline. Then a commit whose subordinate never acks leaves
// no table entry, only its pin, while the resender is still
// retransmitting when its participant stops: Stop returns without
// waiting out the ack timeout, and the decision stays pinned for
// recovery.
func TestLiveEarlyAnswerHygiene(t *testing.T) {
	net := netsim.NewChanNetwork()
	parts, before := commitAmongThree(t, net, []protocol.Variant{protocol.VariantPA, protocol.VariantBaseline})
	waitUntil(t, 5*time.Second, func() bool {
		for _, p := range parts {
			if p.StateTableSize() != 0 || p.PinnedDecisions() != 0 {
				return false
			}
		}
		return runtime.NumGoroutine() <= before
	})

	// A subordinate that votes yes and never acks, against an ack
	// timeout far longer than the test.
	c := NewParticipant("D", net.Endpoint("D"), wal.New(wal.NewMemStore()), nil,
		WithTimeout(time.Minute, time.Minute))
	c.Start()
	sub := &rawSub{ep: net.Endpoint("S")}
	stop := make(chan struct{})
	defer close(stop)
	go sub.serve(stop)
	tx := protocol.TxID{Origin: "D", Seq: 1}.String()
	if out, err := c.Commit(context.Background(), tx, []string{"S"}); out != Committed || err != nil {
		t.Fatalf("commit = %v, %v", out, err)
	}
	if c.StateTableSize() != 0 || c.PinnedDecisions() != 1 {
		t.Fatalf("after Commit: %d table entries, %d pins; want none, and the commit pinned", c.StateTableSize(), c.PinnedDecisions())
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waited on the resender with acks outstanding")
	}
	if c.StateTableSize() != 0 || c.PinnedDecisions() != 1 {
		t.Fatalf("after Stop: %d table entries, %d pins; want none, and the commit pinned", c.StateTableSize(), c.PinnedDecisions())
	}
}

// TestLiveEarlyCommitRetiresAtAnswer: a PA commit's round ends at its
// answer. Its acks are owed to the pinned decided entry, so Commit
// leaves no table entry behind, and commits whose acks are held back
// start no goroutine each: the goroutine count does not grow over 100
// of them.
func TestLiveEarlyCommitRetiresAtAnswer(t *testing.T) {
	net := netsim.NewChanNetwork()
	c := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithTimeout(time.Minute, time.Minute))
	c.Start()
	defer c.Stop()
	sub := &rawSub{ep: net.Endpoint("S")}
	stop := make(chan struct{})
	defer close(stop)
	go sub.serve(stop)
	commit := func(seq uint64) {
		t.Helper()
		tx := protocol.TxID{Origin: "C", Seq: seq}.String()
		if out, err := c.Commit(context.Background(), tx, []string{"S"}); out != Committed || err != nil {
			t.Fatalf("commit %s = %v, %v", tx, out, err)
		}
	}
	commit(1)
	if c.StateTableSize() != 0 || c.PinnedDecisions() != 1 {
		t.Fatalf("after Commit: %d table entries, %d pins; want none, and the commit pinned", c.StateTableSize(), c.PinnedDecisions())
	}
	before := runtime.NumGoroutine()
	for seq := uint64(2); seq <= 101; seq++ {
		commit(seq)
	}
	if c.StateTableSize() != 0 || c.PinnedDecisions() != 101 {
		t.Fatalf("after 101 commits: %d table entries, %d pins; want none, and every commit pinned", c.StateTableSize(), c.PinnedDecisions())
	}
	// Outbound flushers are transient: give them time to go.
	waitUntil(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
}

// TestLiveResenderReachesDroppedCommit: a subordinate drops the first
// Commit it receives. The participant's resender sends it again on the
// retry backoff, the subordinate acks that one, and the pin releases
// with End written, counting nothing in doubt.
func TestLiveResenderReachesDroppedCommit(t *testing.T) {
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	c := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithTimeout(5*time.Second, 5*time.Second), WithMetrics(reg),
		WithRetry(clock.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}))
	c.Start()
	defer c.Stop()
	sub := &rawSub{ep: net.Endpoint("S")}
	sub.ack.Store(true)
	sub.drop.Store(1)
	stop := make(chan struct{})
	defer close(stop)
	go sub.serve(stop)
	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	if out, err := c.Commit(context.Background(), tx, []string{"S"}); out != Committed || err != nil {
		t.Fatalf("commit = %v, %v", out, err)
	}
	waitAcked(t, c)
	if n := sub.commits.Load(); n < 2 {
		t.Fatalf("subordinate received %d commits, want the dropped one resent", n)
	}
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if !hasTxRecord(t, c.Log(), tx, protocol.RecEnd) {
		t.Fatal("the resent commit's ack released the pin without writing End")
	}
	if snap := reg.Snapshot(); snap.TotalInDoubt() != 0 || snap.TotalRetries() == 0 {
		t.Fatalf("%d counted in doubt and %d retries; want none in doubt, and the resend counted", snap.TotalInDoubt(), snap.TotalRetries())
	}
}
