package live

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// ledgerNode waits until reg's ledger holds one closed entry for tx and
// returns node's part of it.
func ledgerNode(t *testing.T, reg *metrics.Registry, tx, node string) metrics.NodeCostView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if views := reg.CostSnapshot(); len(views) == 1 && views[0].Tx == tx && views[0].Closed() {
			return views[0].Node(node)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: ledger never closed %s: %+v", node, tx, reg.CostSnapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveVolunteerFollowsCoordinatorVariant: a subordinate that votes
// unsolicited under a PA coordinator prepares under PA, though no
// Prepare ever announces it. When the other subordinate votes no, the
// volunteer applies the abort by PA's rules: a lazy Aborted record and
// no ack. Its Prepared record names PA, so a restart would recover
// under PA too, and its ledger entry is PA's prepared-then-aborted
// spend exactly: the vote, the forced Prepared, the lazy Aborted and
// End.
func TestLiveVolunteerFollowsCoordinatorVariant(t *testing.T) {
	net := netsim.NewChanNetwork()
	regs := map[string]*metrics.Registry{}
	logs := map[string]*wal.Log{}
	parts := map[string]*Participant{}
	mk := func(name string, vote protocol.VoteValue) {
		regs[name], logs[name] = metrics.New(), wal.New(wal.NewMemStore())
		parts[name] = NewParticipant(name, net.Endpoint(name), logs[name],
			[]protocol.Resource{protocol.NewStaticResource("r@"+name, protocol.StaticVote(vote))},
			WithVariant(protocol.VariantPA), WithMetrics(regs[name]))
		if err := parts[name].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(parts[name].Stop)
	}
	mk("C", protocol.VoteYes)
	mk("V", protocol.VoteYes)
	mk("N", protocol.VoteNo)

	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	if err := parts["V"].UnsolicitedVote("C", tx, protocol.VariantPA); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		sh := parts["C"].shardFor(tx)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		st := sh.txs[tx]
		return st != nil && len(st.inbox) == 1
	})
	if out, err := parts["C"].Commit(context.Background(), tx, []string{"V", "N"}); out != Aborted || err != nil {
		t.Fatalf("commit = %v, %v; want aborted by N's no", out, err)
	}

	v := ledgerNode(t, regs["V"], tx, "V")
	if v.Role != metrics.RoleSubordinate || v.Flows != 1 || v.Extra != 0 || v.Forced != 1 || v.NonForced != 2 {
		t.Fatalf("volunteer spent %+v as %v, want one vote, a forced Prepared, a lazy Aborted and End", v.CostCounters, v.Role)
	}
	if sent := regs["V"].Snapshot().Nodes["V"].MessagesSent; sent != 1 {
		t.Fatalf("volunteer sent %d messages, want its vote alone: PA acks no abort", sent)
	}
	if err := logs["V"].Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := logs["V"].Records()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
		if r.Kind != protocol.RecPrepared {
			continue
		}
		if lr, err := protocol.DecodeLogRecord(r.Kind, r.Data); err != nil || lr.Presume != protocol.VariantPA {
			t.Fatalf("Prepared record %+v (%v) names %v, want PA", lr, err, lr.Presume)
		}
	}
	if len(kinds) != 3 || kinds[0] != protocol.RecPrepared || kinds[1] != protocol.RecAborted || kinds[2] != protocol.RecEnd {
		t.Fatalf("volunteer logged %v, want Prepared, Aborted, End", kinds)
	}
	// The no-voter knows the outcome at its vote, so its entry closes.
	if n := ledgerNode(t, regs["N"], tx, "N"); n.Flows != 1 || n.Writes() != 0 {
		t.Fatalf("no-voter spent %+v, want its vote alone", n.CostCounters)
	}
	for name, p := range parts {
		waitUntil(t, 5*time.Second, func() bool { return p.StateTableSize() == 0 })
		if name != "C" && p.PinnedDecisions() != 0 {
			t.Fatalf("%s pins %d decisions", name, p.PinnedDecisions())
		}
	}
}

// countingResource counts the Prepares it answers.
type countingResource struct {
	*protocol.StaticResource
	prepares atomic.Int32
}

func (r *countingResource) Prepare(tx protocol.TxID) (protocol.PrepareResult, error) {
	r.prepares.Add(1)
	return r.StaticResource.Prepare(tx)
}

// TestLiveReadOnlyRepeatAnsweredFromRecord: a read-only voter keeps its
// vote in the decided table, so a retransmitted Prepare is answered
// from it, with the same vote as an extra flow, and the resources are
// not prepared again. The kept vote decides nothing: Decided leaves it
// out, an inquiry is answered by presumption, and a delegation gets
// the abort.
func TestLiveReadOnlyRepeatAnsweredFromRecord(t *testing.T) {
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	res := &countingResource{StaticResource: protocol.NewStaticResource("r@S", protocol.StaticVote(protocol.VoteReadOnly))}
	s := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()), []protocol.Resource{res}, WithMetrics(reg))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	x := net.Endpoint("X")
	tx := protocol.TxID{Origin: "X", Seq: 1}.String()
	ask := func(m protocol.Message) protocol.Message {
		t.Helper()
		if err := x.Send("S", protocol.Packet{From: "X", To: "S", Messages: []protocol.Message{m}}); err != nil {
			t.Fatal(err)
		}
		select {
		case pkt := <-x.Recv():
			return pkt.Messages[0]
		case <-time.After(5 * time.Second):
			t.Fatalf("%v unanswered", m.Type)
		}
		return protocol.Message{}
	}
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: tx, Presume: protocol.VariantBaseline}
	for i := 0; i < 2; i++ {
		if m := ask(prep); m.Type != protocol.MsgVote || m.Vote != protocol.VoteReadOnly {
			t.Fatalf("Prepare %d answered %+v, want a read-only vote", i+1, m)
		}
		waitUntil(t, 5*time.Second, func() bool { return s.StateTableSize() == 0 })
	}
	if n := res.prepares.Load(); n != 1 {
		t.Fatalf("resource prepared %d times, want 1", n)
	}
	if views := reg.CostSnapshot(); len(views) != 1 {
		t.Fatalf("ledger %+v, want one entry", views)
	} else if n := views[0].Node("S"); n.Flows != 1 || n.Extra != 1 {
		t.Fatalf("read-only voter spent %+v, want 1 flow and 1 extra", n.CostCounters)
	}
	if _, ok := s.Decided()[tx]; ok || s.DecidedTableSize() != 1 {
		t.Fatalf("Decided %v (table %d): the read-only vote must be kept, and decide nothing", s.Decided(), s.DecidedTableSize())
	}
	if m := ask(protocol.Message{Type: protocol.MsgInquire, Tx: tx, Presume: protocol.VariantPA}); m.Outcome != protocol.OutcomeAbort {
		t.Fatalf("inquiry answered %+v, want PA's presumption", m)
	}
	// A delegation asks for the decision: it gets the abort, not the
	// kept vote.
	if m := ask(protocol.Message{Type: protocol.MsgPrepare, Tx: tx, Presume: protocol.VariantBaseline, Delegate: true}); m.Type != protocol.MsgAbort {
		t.Fatalf("delegation answered %+v, want the abort", m)
	}
	// Basic 2PC acks an abort, so the kept vote acks one sent to every
	// subordinate, logging nothing.
	if m := ask(protocol.Message{Type: protocol.MsgAbort, Tx: tx}); m.Type != protocol.MsgAck {
		t.Fatalf("abort answered %+v, want an ack", m)
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Log().Records(); len(recs) != 0 {
		t.Fatalf("read-only voter logged %d records", len(recs))
	}
}
