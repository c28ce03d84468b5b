package live

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestLiveOffPathAckDamage: a subordinate whose resource already took
// the opposite decision heuristically reports damage on its ack. Under
// PA the ack arrives after Commit has returned Committed, so the
// background collector counts the damage on the coordinator's own
// registry. Under PN the ack is on the caller's path, and Commit
// returns ErrHeuristicDamage.
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
// Basic 2PC, whose commit acks are collected after Commit returns,
// among three participants, and checks that the background collectors
// leave nothing behind: every state table and every pin is empty, and
// the goroutine count is back at its baseline. Then a collector whose
// subordinate never acks is still retransmitting when its participant
// stops: Stop returns without waiting out the ack timeout, and the
// decision stays pinned for recovery.
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
	if c.StateTableSize() != 1 {
		t.Fatalf("state table holds %d entries, want the collector's", c.StateTableSize())
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waited on a collector with acks outstanding")
	}
	if c.StateTableSize() != 0 || c.PinnedDecisions() != 1 {
		t.Fatalf("after Stop: %d table entries, %d pins; want none, and the commit pinned", c.StateTableSize(), c.PinnedDecisions())
	}
}
