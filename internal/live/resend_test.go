package live

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// The tests below lose the first copy of an outcome, or of the ack
// that answers one, and check that the participant's one resender
// delivers it again: each runs one transaction on a virtual clock, so
// no other decision rotates the decided table (reannounce), and the
// pin must release before the ack deadline.

// resendOpts are the timeouts and retry schedule of these tests: a
// first resend after 10 ms of virtual time, well inside the deadline.
func resendOpts(vc *clock.Virtual, reg *metrics.Registry) []Option {
	return []Option{WithClock(vc), WithShards(1), WithMetrics(reg), WithTimeout(forgetTimeout, forgetTimeout),
		WithRetry(clock.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Jitter: -1})}
}

// dropFirstOf is a network transform that loses the first message of
// type typ from one node to another.
func dropFirstOf(from, to string, typ protocol.MsgType) netsim.Transform {
	var dropped atomic.Bool
	return func(f, t string, m protocol.Message) (protocol.Message, bool) {
		return m, !(f == from && t == to && m.Type == typ && dropped.CompareAndSwap(false, true))
	}
}

// settleVirtual advances vc to each armed timer in turn, giving the
// traffic each sets off up to 200 ms of real time to land, until cond
// holds. Unlike driveVirtualUntil it does not run on to the next timer
// while an ack is still on its way, so the virtual time at which cond
// first holds is the time the resends needed.
func settleVirtual(t *testing.T, vc *clock.Virtual, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("never settled under virtual time")
		}
		d, ok := vc.NextDeadline()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		vc.AdvanceTo(d)
		landed := time.Now().Add(200 * time.Millisecond)
		for !cond() && time.Now().Before(landed) {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// released checks that p's pin on tx released within the ack deadline
// with End written and nothing counted in doubt.
func released(t *testing.T, p *Participant, vc *clock.Virtual, reg *metrics.Registry, tx string) {
	t.Helper()
	settleVirtual(t, vc, func() bool { return p.PinnedDecisions() == 0 })
	if now := vc.Now(); now >= forgetTimeout {
		t.Errorf("%s's pin released at %v, past the %v ack deadline", p.Name(), now, forgetTimeout)
	}
	if err := p.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if !hasTxRecord(t, p.Log(), tx, protocol.RecEnd) {
		t.Errorf("%s released its pin without writing End", p.Name())
	}
	if n := reg.Snapshot().TotalInDoubt(); n != 0 {
		t.Errorf("%d counted in doubt, want none", n)
	}
}

// TestLiveResenderReachesDroppedAbort: under Basic 2PC and PN an abort
// is acknowledged. The coordinator's own resource votes no while S is
// still silent, and the first Abort to S is lost: the resender sends it
// again, S acks, and the coordinator's pin releases.
func TestLiveResenderReachesDroppedAbort(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			vc, reg := clock.NewVirtual(), metrics.New()
			net := netsim.NewChanNetwork(netsim.WithTransform(dropFirstOf("C", "S", protocol.MsgAbort)))
			opts := append(resendOpts(vc, reg), WithVariant(v))
			c := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{protocol.NewStaticResource("rc", protocol.StaticVote(protocol.VoteNo))}, opts...)
			s := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{protocol.NewStaticResource("rs")}, opts...)
			c.Start()
			s.Start()
			defer c.Stop()
			defer s.Stop()

			tx := protocol.TxID{Origin: "C", Seq: 1}.String()
			if out, err := c.Commit(context.Background(), tx, []string{"S"}); out != Aborted || err != nil {
				t.Fatalf("commit = %v, %v; want aborted", out, err)
			}
			if c.PinnedDecisions() != 1 {
				t.Fatalf("%d pins after the abort, want it pinned until S acks", c.PinnedDecisions())
			}
			released(t, c, vc, reg, tx)
			if got, ok := s.Decided()[tx]; !ok || got {
				t.Errorf("S decided committed=%v (known %v), want the abort", got, ok)
			}
		})
	}
}

// TestLiveResenderReachesDroppedRedrive: a coordinator restarts over a
// commit record with no End, so it redrives the commit to the
// subordinate the record names. That first Commit is lost; the
// resender sends it again and the subordinate's ack releases the pin.
func TestLiveResenderReachesDroppedRedrive(t *testing.T) {
	const tx = "C:1"
	store := wal.NewMemStore()
	rec := protocol.LogRecord{Kind: protocol.RecCommitted, Subs: []string{"S"}}
	if err := store.Append(wal.Record{Tx: tx, Node: "C", Kind: rec.Kind, Data: rec.Encode(), Forced: true}); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	vc, reg := clock.NewVirtual(), metrics.New()
	net := netsim.NewChanNetwork()
	sub := &rawSub{ep: net.Endpoint("S")}
	sub.ack.Store(true)
	sub.drop.Store(1)
	stop := make(chan struct{})
	defer close(stop)
	go sub.serve(stop)

	c := NewParticipant("C", net.Endpoint("C"), wal.New(store), nil, resendOpts(vc, reg)...)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.PinnedDecisions() != 1 {
		t.Fatalf("%d pins after the restart, want the commit pinned", c.PinnedDecisions())
	}
	released(t, c, vc, reg, tx)
	if n := sub.commits.Load(); n < 2 {
		t.Errorf("subordinate received %d commits, want the dropped one resent", n)
	}
}

// TestLiveResenderReachesDroppedAgentAck: a last agent's decision is
// held, End unwritten, until its coordinator acks it. The coordinator's
// first Ack is lost; the agent's resender sends the decision again,
// the coordinator answers it from its decided table, and the agent's
// pin releases.
func TestLiveResenderReachesDroppedAgentAck(t *testing.T) {
	vc, reg := clock.NewVirtual(), metrics.New()
	net := netsim.NewChanNetwork(netsim.WithTransform(dropFirstOf("C", "A", protocol.MsgAck)))
	opts := resendOpts(vc, reg)
	c := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, append(opts, WithLastAgent())...)
	a := NewParticipant("A", net.Endpoint("A"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("ra")}, opts...)
	c.Start()
	a.Start()
	defer c.Stop()
	defer a.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	if out, err := c.Commit(context.Background(), tx, []string{"A"}); out != Committed || err != nil {
		t.Fatalf("commit = %v, %v", out, err)
	}
	if a.PinnedDecisions() != 1 {
		t.Fatalf("%d pins at the agent, want its decision held for the lost Ack", a.PinnedDecisions())
	}
	released(t, a, vc, reg, tx)
	if got, ok := c.Decided()[tx]; !ok || !got {
		t.Errorf("C decided committed=%v (known %v), want the agent's commit", got, ok)
	}
}
