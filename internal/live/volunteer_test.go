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
// unsolicited (Volunteer) under a PA coordinator prepares under PA,
// though no Prepare ever announces it. When the other subordinate votes no, the
// volunteer applies the abort by PA's rules: a lazy Aborted record and
// no ack. Its Prepared record names PA, so a restart would recover
// under PA too, and its ledger entry is PA's prepared-then-aborted
// spend exactly: the vote, piggybacked on the reply, the forced
// Prepared, the lazy Aborted and End.
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
	vote, err := parts["V"].Volunteer(tx, protocol.VariantPA)
	if err != nil || vote != protocol.VoteYes {
		t.Fatalf("volunteer = %v, %v", vote, err)
	}
	if out, err := parts["C"].CommitVariant(context.Background(), tx, []string{"V", "N"}, protocol.VariantPA, Vote{From: "V", Vote: vote}); out != Aborted || err != nil {
		t.Fatalf("commit = %v, %v; want aborted by N's no", out, err)
	}

	v := ledgerNode(t, regs["V"], tx, "V")
	if v.Role != metrics.RoleSubordinate || v.Flows != 1 || v.Piggybacked != 1 || v.Extra != 0 || v.Forced != 1 || v.NonForced != 2 {
		t.Fatalf("volunteer spent %+v as %v, want one piggybacked vote, a forced Prepared, a lazy Aborted and End", v.CostCounters, v.Role)
	}
	if n := regs["V"].Snapshot().Nodes["V"]; n.MessagesSent != 1 || n.PacketsSent != 0 {
		t.Fatalf("volunteer sent %d messages in %d packets, want its vote in the reply alone: PA acks no abort", n.MessagesSent, n.PacketsSent)
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

// TestLiveAbortSkipsReadOnlyVoter: an abort goes only to the
// subordinates that may be prepared (protocol.HearsOutcome). R votes
// read-only ahead of Commit, in a reply (Volunteer), and N votes no to
// its Prepare, so under PA and Basic 2PC the Abort goes to N alone: R
// receives nothing at all and keeps nothing, the Basic 2PC abort record
// names N alone and releases its pin on N's ack, and the coordinator's
// ledger counts one delivery.
func TestLiveAbortSkipsReadOnlyVoter(t *testing.T) {
	for seq, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantBaseline} {
		net := netsim.NewChanNetwork()
		regs := map[string]*metrics.Registry{}
		parts := map[string]*Participant{}
		for name, vote := range map[string]protocol.VoteValue{"C": protocol.VoteYes, "R": protocol.VoteReadOnly, "N": protocol.VoteNo} {
			regs[name] = metrics.New()
			parts[name] = NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
				[]protocol.Resource{protocol.NewStaticResource("r@"+name, protocol.StaticVote(vote))},
				WithVariant(v), WithMetrics(regs[name]))
			if err := parts[name].Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(parts[name].Stop)
		}
		tx := protocol.TxID{Origin: "C", Seq: uint64(seq + 1)}.String()
		vote, err := parts["R"].Volunteer(tx, v)
		if err != nil || vote != protocol.VoteReadOnly {
			t.Fatalf("%v: volunteer = %v, %v", v, vote, err)
		}
		if r := ledgerNode(t, regs["R"], tx, "R"); r.Flows != 1 || r.Piggybacked != 1 || r.Writes() != 0 {
			t.Errorf("%v: the read-only voter spent %+v, want its piggybacked vote alone", v, r.CostCounters)
		}
		if out, err := parts["C"].CommitVariant(context.Background(), tx, []string{"R", "N"}, v, Vote{From: "R", Vote: vote}); out != Aborted || err != nil {
			t.Fatalf("%v: commit = %v, %v; want aborted by N's no", v, out, err)
		}
		waitUntil(t, 5*time.Second, func() bool { return parts["C"].PinnedDecisions() == 0 })
		if got := regs["R"].Snapshot().Nodes["R"].MessagesReceived; got != 0 {
			t.Errorf("%v: the read-only voter received %d messages, want none", v, got)
		}
		if n := parts["R"].DecidedTableSize(); n != 0 {
			t.Errorf("%v: the read-only voter keeps %d decided entries", v, n)
		}
		if views := regs["C"].CostSnapshot(); len(views) != 1 || views[0].Delivered != 1 {
			t.Errorf("%v: coordinator ledger %+v, want one abort told to one subordinate", v, views)
		}
		if err := parts["C"].Log().Sync(); err != nil {
			t.Fatal(err)
		}
		recs, _ := parts["C"].Log().Records()
		for _, r := range recs {
			if r.Kind != protocol.RecAborted {
				continue
			}
			if lr, err := protocol.DecodeLogRecord(r.Kind, r.Data); err != nil || len(lr.Subs) != 1 || lr.Subs[0] != "N" {
				t.Errorf("%v: abort record names %v (%v), want N alone", v, lr.Subs, err)
			}
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

// TestLiveReadOnlyRepeatPreparesAgain: a read-only voter keeps nothing
// of the transaction, so a second Prepare finds nothing: the resource
// is prepared again and votes read-only again. The coordinator marks a
// resent Prepare Repeat, and the vote answering it is an extra flow
// that opens no ledger entry: the ledger holds one entry for the
// transaction, with one flow and one extra, and once the audit has
// drained it a third Prepare opens none. Nothing is left in the decided
// table, and an inquiry gets the presumption. A coordinator with no
// memory of a transaction tells a read-only voter nothing either.
func TestLiveReadOnlyRepeatPreparesAgain(t *testing.T) {
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
		prep.Repeat = true
	}
	if n := res.prepares.Load(); n != 2 {
		t.Fatalf("resource prepared %d times, want 2", n)
	}
	views := reg.CostDrainClosed()
	if len(views) != 1 {
		t.Fatalf("ledger %+v, want one entry", views)
	} else if n := views[0].Node("S"); n.Flows != 1 || n.Extra != 1 {
		t.Fatalf("read-only voter spent %+v, want 1 flow and 1 extra", n.CostCounters)
	}
	if m := ask(prep); m.Type != protocol.MsgVote || m.Vote != protocol.VoteReadOnly {
		t.Fatalf("Prepare 3 answered %+v, want a read-only vote", m)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.StateTableSize() == 0 })
	if n := reg.CostLedgerSize(); n != 0 {
		t.Fatalf("a repeat after the drain opened %d ledger entries: %+v", n, reg.CostSnapshot())
	}
	if _, ok := s.Decided()[tx]; ok || s.DecidedTableSize() != 0 {
		t.Fatalf("Decided %v (table %d): a read-only voter keeps nothing", s.Decided(), s.DecidedTableSize())
	}
	if m := ask(protocol.Message{Type: protocol.MsgInquire, Tx: tx, Presume: protocol.VariantPA}); m.Outcome != protocol.OutcomeAbort {
		t.Fatalf("inquiry answered %+v, want PA's presumption", m)
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Log().Records(); len(recs) != 0 {
		t.Fatalf("read-only voter logged %d records", len(recs))
	}
	// As a coordinator with no memory of a transaction, S aborts it on
	// a yes vote and tells the voter, but a read-only voter has left:
	// its vote is dropped, and the Abort is the first answer X gets.
	stray := protocol.TxID{Origin: "S", Seq: 1}.String()
	if err := x.Send("S", protocol.Packet{From: "X", To: "S", Messages: []protocol.Message{{Type: protocol.MsgVote, Tx: stray, Vote: protocol.VoteReadOnly}}}); err != nil {
		t.Fatal(err)
	}
	yes := protocol.TxID{Origin: "S", Seq: 2}.String()
	if m := ask(protocol.Message{Type: protocol.MsgVote, Tx: yes, Vote: protocol.VoteYes}); m.Type != protocol.MsgAbort || m.Tx != yes {
		t.Fatalf("stray votes answered %+v first, want the yes-voter's abort", m)
	}
	if _, ok := s.Decided()[stray]; ok || s.StateTableSize() != 0 {
		t.Fatalf("a stray read-only vote left state: decided %v, %d live", s.Decided(), s.StateTableSize())
	}
}
