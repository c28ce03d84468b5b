package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
)

// --- Read Only (§4, Figure 4) --------------------------------------------

func TestReadOnlyPartial(t *testing.T) {
	// Figure 4: one subordinate read-only, one updater. The read-only
	// one is out of phase two: 1 flow, 0 logs.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("RO").AttachResource(protocol.NewStaticResource("ro", protocol.StaticVote(protocol.VoteReadOnly)))
	eng.AddNode("UP").AttachResource(protocol.NewStaticResource("up"))
	tx := eng.Begin("C")
	if err := tx.Send("C", "RO", "r"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send("C", "UP", "w"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	counts(t, eng, "RO", 1, 0, 0)
	counts(t, eng, "UP", 2, 3, 2)
	// Coordinator: 2 data + Prepare×2 + Commit×1 (not to RO).
	counts(t, eng, "C", 2+3, 2, 1)
}

func TestReadOnlyDisabledForcesFullParticipation(t *testing.T) {
	// With the optimization off (basic 2PC), a participant that did
	// nothing still runs the full protocol.
	eng := NewEngine(Config{Variant: protocol.VariantBaseline})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("RO").AttachResource(protocol.NewStaticResource("ro", protocol.StaticVote(protocol.VoteReadOnly)))
	tx := eng.Begin("C")
	if err := tx.Send("C", "RO", "r"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	counts(t, eng, "RO", 2, 3, 2) // full subordinate cost despite no updates
}

func TestCascadedReadOnlyRollup(t *testing.T) {
	// A cascaded coordinator may vote read-only iff all its
	// subordinates did.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm", protocol.StaticVote(protocol.VoteReadOnly)))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl", protocol.StaticVote(protocol.VoteReadOnly)))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// M: receives Prepare, relays to L, gets VoteReadOnly, votes
	// read-only itself: flows = Prepare(to L) + VoteReadOnly(up) + data = 3; logs 0.
	counts(t, eng, "M", 1+1+1, 0, 0)
	counts(t, eng, "L", 1, 0, 0)
}

func TestCascadedMixedRollupIsYes(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm", protocol.StaticVote(protocol.VoteReadOnly)))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl")) // updater below
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// M must vote YES (to propagate the outcome to L) and log as a
	// cascaded coordinator even though its own resource is read-only.
	mc := eng.Metrics().Node("M")
	if mc.ForcedWrites == 0 {
		t.Error("mixed cascaded coordinator must log prepared/committed")
	}
	if o, ok := eng.OutcomeAt("L", tx.ID()); !ok || o != OutcomeCommitted {
		t.Errorf("L outcome = %v,%v", o, ok)
	}
}

// --- Last Agent (§4, Figure 6) --------------------------------------------

func TestLastAgentPA(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("C")
	if err := tx.Send("C", "A", "w"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	// Coordinator: data + single VoteYes+LastAgent flow; logs:
	// Prepared*, Committed*, End → 3 logs, 2 forced (the extra force
	// the paper charges PA for).
	counts(t, eng, "C", 1+1, 3, 2)
	// Agent: one Commit flow; Committed* plus END (END deferred until
	// implied ack — session flush provides it).
	eng.FlushSessions()
	counts(t, eng, "A", 1, 2, 1)
	if eng.InDoubtAt("A", tx.ID()) {
		t.Error("agent stuck in doubt")
	}
}

func TestLastAgentImpliedAckViaNextData(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx1 := eng.Begin("C")
	tx1.Send("C", "A", "w")
	if res := tx1.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v", res)
	}
	// Before any further data the agent still holds tx1 awaiting the
	// implied ack (no End yet).
	endCount := func() int {
		n := 0
		for _, r := range eng.LogRecords("A") {
			if r.Kind == "End" && r.Tx == tx1.ID().String() {
				n++
			}
		}
		return n
	}
	if endCount() != 0 {
		t.Fatal("agent wrote End before implied ack")
	}
	// Next transaction's data is the implied ack.
	tx2 := eng.Begin("C")
	tx2.Send("C", "A", "more work")
	// End is non-forced; force it out by finishing tx2.
	if res := tx2.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx2 = %+v", res)
	}
	if endCount() != 1 {
		t.Fatalf("agent End records for tx1 = %d, want 1 after implied ack", endCount())
	}
}

func TestLastAgentPN(t *testing.T) {
	// PN: the pending record covers the delegation; coordinator logs
	// stay at 3/2 (no extra force vs normal PN).
	eng := NewEngine(Config{Variant: protocol.VariantPN, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	counts(t, eng, "C", 1+1, 3, 2) // Pending*, Committed*, End
}

func TestLastAgentReadOnlyInitiator(t *testing.T) {
	// A read-only initiator delegates without forcing a prepared
	// record (§4 Last Agent): zero logs at the coordinator.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", protocol.StaticVote(protocol.VoteReadOnly)))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	counts(t, eng, "C", 1+1, 0, 0)
}

func TestLastAgentAborts(t *testing.T) {
	// The agent votes no: its Abort travels upstream.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra", protocol.StaticVote(protocol.VoteNo)))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	if o, _ := eng.OutcomeAt("C", tx.ID()); o != OutcomeAborted {
		t.Errorf("C outcome = %v", o)
	}
}

func TestLastAgentWithOtherSubsPreparedFirst(t *testing.T) {
	// Coordinator with two subs: one prepared normally, the other is
	// the last agent (chosen explicitly).
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	eng.AddNode("FAR").AttachResource(protocol.NewStaticResource("rf"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "a")
	tx.Send("C", "FAR", "b")
	tx.SetLastAgent("C", "FAR")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	// FAR exchanged exactly one round trip of commit traffic: VoteYes
	// in, Commit out.
	fc := eng.Metrics().Node("FAR")
	if fc.MessagesSent != 1 {
		t.Errorf("last agent sent %d flows, want 1", fc.MessagesSent)
	}
	// S ran the normal path.
	counts(t, eng, "S", 2, 3, 2)
	for _, node := range []protocol.NodeID{"C", "S", "FAR"} {
		if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeCommitted {
			t.Errorf("%s outcome = %v,%v", node, o, ok)
		}
	}
}

// TestLastAgentRepeatAfterErasedAbort loses a presumed-abort agent's
// Abort and crashes the agent, which never recorded the abort. Its
// resource would now vote yes, so the coordinator's repeated delegation
// must still be answered abort, and the other yes-voter must not commit.
func TestLastAgentRepeatAfterErasedAbort(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	eng.AddNode("A").AttachResource(&votesNoOnce{protocol.NewStaticResource("ra"), false})
	tx := eng.Begin("C")
	for _, to := range []protocol.NodeID{"S", "A"} {
		if err := tx.Send("C", to, "w"); err != nil {
			t.Fatal(err)
		}
	}
	tx.SetLastAgent("C", "A")
	lost := false
	eng.SetMessageFilter(func(from, to protocol.NodeID, m protocol.Message) (protocol.Message, bool) {
		if from == "A" && to == "C" && m.Type == protocol.MsgAbort && !lost {
			lost = true
			eng.CrashAt("A", time.Microsecond)
			eng.Restart("A", time.Millisecond)
			return m, false
		}
		return m, true
	})
	if res := tx.Commit("C"); res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v (%v), want aborted", res.Outcome, res.Err)
	}
	if !lost {
		t.Fatal("the agent's abort was never sent")
	}
	if c, known := rs.Outcome(tx.ID()); !known || c {
		t.Errorf("the other yes-voter completed committed=%v (known %v), want aborted", c, known)
	}
}

// votesNoOnce votes no on its first Prepare and yes after, as a store
// does whose rolled-back writes leave nothing to refuse.
type votesNoOnce struct {
	*protocol.StaticResource
	asked bool
}

func (r *votesNoOnce) Prepare(tx protocol.TxID) (protocol.PrepareResult, error) {
	if !r.asked {
		r.asked = true
		return protocol.PrepareResult{Vote: protocol.VoteNo}, nil
	}
	return r.StaticResource.Prepare(tx)
}

// --- Unsolicited Vote (§4) -------------------------------------------------

func TestUnsolicitedVote(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "w"); err != nil {
		t.Fatal(err)
	}
	// The server knows it is done and prepares spontaneously.
	if err := tx.UnsolicitedVote("S"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	// Coordinator: data + Commit only (no Prepare): saves m flows.
	counts(t, eng, "C", 1+1, 2, 1)
	// Subordinate: VoteYes+Unsolicited, Ack; normal logging.
	counts(t, eng, "S", 2, 3, 2)
}

func TestUnsolicitedVoteRequiresCoordinator(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("A")
	if err := tx.UnsolicitedVote("A"); err == nil {
		t.Fatal("unsolicited vote without coordinator should fail")
	}
}

// --- Vote Reliable (§4, Figure 8) ------------------------------------------

func TestVoteReliableSkipsAck(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, VoteReliable: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", protocol.StaticReliable()))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticReliable()))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	eng.FlushSessions()
	// Subordinate: VoteYes only — the ack is implied (saves m flows).
	counts(t, eng, "S", 1, 3, 2)
}

func TestVoteReliableMixedFallsBackToLateAck(t *testing.T) {
	// One unreliable resource anywhere in the subtree forces the
	// normal explicit-ack path.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, VoteReliable: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm", protocol.StaticReliable()))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl")) // not reliable
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// M's subtree contains an unreliable leaf: M's vote must not be
	// reliable, so M acks explicitly: VoteYes + Prepare(L) + Commit(L) + Ack + data = 5 sends.
	mc := eng.Metrics().Node("M")
	if mc.MessagesSent != 5 {
		t.Errorf("M sent %d flows, want 5 (explicit ack path)", mc.MessagesSent)
	}
}

// --- Early Acknowledgment (§4 Commit Acknowledgment) ------------------------

func TestEarlyAckCompletesRootBeforeLeafAcks(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, EarlyAck: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// With early ack, M acks C before L acks M: find the trace order.
	var ackMtoC, ackLtoM int = -1, -1
	for i, f := range eng.Trace().FlowStrings() {
		if strings.HasPrefix(f, "M->C Ack") {
			ackMtoC = i
		}
		if strings.HasPrefix(f, "L->M Ack") {
			ackLtoM = i
		}
	}
	if ackMtoC == -1 || ackLtoM == -1 {
		t.Fatalf("missing acks in trace: %v", eng.Trace().FlowStrings())
	}
	if ackMtoC > ackLtoM {
		t.Errorf("early ack: M's ack (%d) should precede L's (%d)", ackMtoC, ackLtoM)
	}
}

// --- Long Locks (§4, Figure 7) ----------------------------------------------

func TestLongLocksAckPiggybacksOnNextTransaction(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LongLocks: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))

	tx1 := eng.Begin("C")
	tx1.Send("C", "S", "w1")
	p1 := tx1.CommitAsync("C")
	eng.Drain()
	// The subordinate deferred its ack, so the commit has not
	// completed at the root yet.
	if _, done := p1.Result(); done {
		t.Fatal("root completed before deferred ack arrived")
	}
	// Subordinate sent only its vote so far.
	if sc := eng.Metrics().Node("S"); sc.MessagesSent != 1 {
		t.Fatalf("S flows = %d, want 1 (ack deferred)", sc.MessagesSent)
	}

	// The next transaction's data from S carries the ack.
	tx2 := eng.Begin("S")
	tx2.Send("S", "C", "next-tx data")
	if r, done := p1.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 after piggybacked ack: %+v done=%v", r, done)
	}
	// The ack flowed but as a piggyback: messages 2, packets 1 … plus
	// the data packet itself originates at S.
	sc := eng.Metrics().Node("S")
	if sc.MessagesSent != 3 { // vote, data, piggybacked ack
		t.Errorf("S messages = %d, want 3", sc.MessagesSent)
	}
	if sc.PacketsSent != 2 { // vote packet + data packet (ack rode along)
		t.Errorf("S packets = %d, want 2", sc.PacketsSent)
	}
}

// --- Leave Out (§4) -----------------------------------------------------------

func TestLeaveOutSkipsIdleServer(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPN, Options: Options{ReadOnly: true, LeaveOut: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut()))

	// tx1 uses S; S votes read-only + OK-to-leave-out.
	tx1 := eng.Begin("C")
	tx1.Send("C", "S", "w1")
	if res := tx1.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v", res)
	}
	base := eng.Metrics().Node("S")

	// tx2 sends S no data: S is left out entirely — zero traffic.
	tx2 := eng.Begin("C")
	if res := tx2.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx2 = %+v", res)
	}
	after := eng.Metrics().Node("S")
	if after.MessagesSent != base.MessagesSent || after.MessagesReceived != base.MessagesReceived {
		t.Errorf("left-out partner saw traffic: %+v -> %+v", base, after)
	}

	// tx3 sends data: S wakes and participates again.
	tx3 := eng.Begin("C")
	tx3.Send("C", "S", "w3")
	if res := tx3.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx3 = %+v", res)
	}
	woke := eng.Metrics().Node("S")
	if woke.MessagesReceived <= after.MessagesReceived {
		t.Error("woken partner did not participate")
	}
}

func TestWithoutLeaveOutIdlePartnerStillPrepared(t *testing.T) {
	// PN without the optimization: the idle session partner must be
	// included in the next commit (it might have done independent work).
	eng := NewEngine(Config{Variant: protocol.VariantPN, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly)))

	tx1 := eng.Begin("C")
	tx1.Send("C", "S", "w1")
	tx1.Commit("C")
	base := eng.Metrics().Node("S")

	tx2 := eng.Begin("C")
	if res := tx2.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx2 = %+v", res)
	}
	after := eng.Metrics().Node("S")
	if after.MessagesReceived == base.MessagesReceived {
		t.Error("idle partner was skipped without the leave-out option")
	}
}

func TestSuspendedNodeCannotInitiate(t *testing.T) {
	// The Figure 5 protection: a left-out (suspended) node may not
	// initiate commit processing until it is re-included.
	eng := NewEngine(Config{Variant: protocol.VariantPN, Options: Options{ReadOnly: true, LeaveOut: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut()))

	tx1 := eng.Begin("C")
	tx1.Send("C", "S", "w1")
	if res := tx1.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v", res)
	}
	// S promised to stay suspended; initiating now is an error.
	tx2 := eng.Begin("S")
	res := tx2.Commit("S")
	if res.Err == nil {
		t.Fatal("suspended node initiated a commit")
	}
	// After being re-included it can initiate again.
	tx3 := eng.Begin("C")
	tx3.Send("C", "S", "wake")
	if res := tx3.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx3 = %+v", res)
	}
	tx4 := eng.Begin("S")
	tx4.Send("S", "C", "peer work")
	if res := tx4.Commit("S"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx4 = %+v (%v)", res.Outcome, res.Err)
	}
}
