package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// --- Paxos Commit fast path costs (analytic closed forms) ---------------

// Two-node tree: the coordinator is the sole acceptor (f=0). Commit
// costs: C {2 flows, 3 writes, 1 forced}, S {1, 3, 1}.
func TestPaxosTwoNodeCommit(t *testing.T) {
	eng, res, rc, rs := commitTwoNode(t, Config{Variant: protocol.VariantPaxos})
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	// C: Prepare, Commit (+1 data flow); PaxAccept*, Committed, End.
	counts(t, eng, "C", 2+1, 3, 1)
	// S: its ballot-0 accept to the one acceptor; Prepared*,
	// Committed, End.
	counts(t, eng, "S", 1, 3, 1)
	tx := protocol.TxID{Origin: "C", Seq: 1}
	if c, ok := rc.Outcome(tx); !ok || !c {
		t.Fatal("coordinator resource did not commit")
	}
	if c, ok := rs.Outcome(tx); !ok || !c {
		t.Fatal("subordinate resource did not commit")
	}
}

// fleet builds a flat Paxos tree with subs subordinates, each with one
// update resource, and commits one transaction from C.
func paxosFleet(t *testing.T, subs int) (*Engine, []protocol.NodeID, Result) {
	t.Helper()
	eng := NewEngine(Config{Variant: protocol.VariantPaxos})
	c := eng.AddNode("C")
	c.AttachResource(protocol.NewStaticResource("rc"))
	var ids []protocol.NodeID
	for i := 0; i < subs; i++ {
		id := protocol.NodeID("S" + string(rune('1'+i)))
		n := eng.AddNode(id)
		n.AttachResource(protocol.NewStaticResource("r" + string(id)))
		ids = append(ids, id)
	}
	tx := eng.Begin("C")
	for _, id := range ids {
		if err := tx.Send("C", id, "work"); err != nil {
			t.Fatal(err)
		}
	}
	res := tx.Commit("C")
	return eng, ids, res
}

// Four-node tree (s=3, a=3): coordinator {2s+a-1, 3, 1}; the two
// acceptor-subordinates {a, 4, 2}; the plain subordinate {a, 3, 1}.
func TestPaxosFourNodeCommitCosts(t *testing.T) {
	eng, _, res := paxosFleet(t, 3)
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	// C: 3 Prepares + 2 own-instance accepts + 3 Commits (+3 data).
	counts(t, eng, "C", 8+3, 3, 1)
	// S1, S2 (acceptors): 2 accepts to the other acceptors + 1
	// bundled Accepted; Prepared*, PaxAccept*, Committed, End.
	counts(t, eng, "S1", 3, 4, 2)
	counts(t, eng, "S2", 3, 4, 2)
	// S3: 3 accepts; Prepared*, Committed, End.
	counts(t, eng, "S3", 3, 3, 1)
}

// A No vote aborts everywhere; the No voter aborts unilaterally (its
// No is on its way to the acceptors, so the transaction cannot
// commit).
func TestPaxosAbortByVote(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPaxos})
	c := eng.AddNode("C")
	c.AttachResource(protocol.NewStaticResource("rc"))
	s1 := eng.AddNode("S1")
	s1.AttachResource(protocol.NewStaticResource("r1"))
	s2 := eng.AddNode("S2")
	s2.AttachResource(protocol.NewStaticResource("r2", protocol.StaticVote(protocol.VoteNo)))
	s3 := eng.AddNode("S3")
	s3.AttachResource(protocol.NewStaticResource("r3"))

	tx := eng.Begin("C")
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if err := tx.Send("C", id, "work"); err != nil {
			t.Fatal(err)
		}
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	for _, id := range []protocol.NodeID{"C", "S1", "S2", "S3"} {
		if o, ok := eng.OutcomeAt(id, tx.ID()); !ok || o != OutcomeAborted {
			t.Errorf("%s: outcome = %v (known=%v), want aborted", id, o, ok)
		}
	}
}

// The non-blocking payoff: the coordinator crashes permanently right
// after its Prepares and ballot-0 accepts are on the wire. Under
// baseline 2PC the prepared subordinates would block forever; under
// Paxos Commit they learn the outcome from the surviving acceptor
// quorum (S1, S2 — two of the three acceptors) and commit.
func TestPaxosCoordinatorCrashNonBlocking(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPaxos})
	c := eng.AddNode("C")
	c.AttachResource(protocol.NewStaticResource("rc"))
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		n := eng.AddNode(id)
		n.AttachResource(protocol.NewStaticResource("r" + string(id)))
	}
	tx := eng.Begin("C")
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if err := tx.Send("C", id, "work"); err != nil {
			t.Fatal(err)
		}
	}
	p := tx.CommitAsync("C")
	// Crash C between the Prepare/accept sends and the acceptors'
	// bundled acknowledgments (which need two network hops plus a
	// force each way).
	eng.CrashAt("C", 2*time.Millisecond)
	eng.Drain()
	if _, done := p.Result(); done {
		t.Fatal("crashed coordinator should not have resumed the application")
	}
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if eng.InDoubtAt(id, tx.ID()) {
			t.Errorf("%s still in doubt: Paxos Commit must not block on a dead coordinator", id)
		}
		if o, ok := eng.OutcomeAt(id, tx.ID()); !ok || o != OutcomeCommitted {
			t.Errorf("%s: outcome = %v (known=%v), want committed", id, o, ok)
		}
	}
}

// Same crash window, but with only f=0 surviving information: if a
// quorum of acceptors is lost the remainder must NOT invent an
// outcome. Crash C (an acceptor) and S1 (another acceptor): S2 alone
// is 1 of 3 and may not decide; once S1 restarts, the quorum heals
// and everyone resolves.
func TestPaxosQuorumLossThenHeal(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPaxos})
	c := eng.AddNode("C")
	c.AttachResource(protocol.NewStaticResource("rc"))
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		n := eng.AddNode(id)
		n.AttachResource(protocol.NewStaticResource("r" + string(id)))
	}
	tx := eng.Begin("C")
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if err := tx.Send("C", id, "work"); err != nil {
			t.Fatal(err)
		}
	}
	tx.CommitAsync("C")
	eng.CrashAt("C", 2*time.Millisecond)
	eng.CrashAt("S1", 4*time.Millisecond)
	eng.Restart("S1", 400*time.Millisecond)
	eng.Drain()
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if eng.InDoubtAt(id, tx.ID()) {
			t.Errorf("%s still in doubt after the acceptor quorum healed", id)
		}
		o, ok := eng.OutcomeAt(id, tx.ID())
		if !ok {
			t.Errorf("%s: no outcome known", id)
			continue
		}
		if o != OutcomeCommitted && o != OutcomeAborted {
			t.Errorf("%s: outcome = %v", id, o)
		}
	}
	// All survivors must agree (AC1).
	o2, _ := eng.OutcomeAt("S2", tx.ID())
	o3, _ := eng.OutcomeAt("S3", tx.ID())
	o1, _ := eng.OutcomeAt("S1", tx.ID())
	if o1 != o2 || o2 != o3 {
		t.Errorf("outcome disagreement: S1=%v S2=%v S3=%v", o1, o2, o3)
	}
}

// An acceptor-subordinate that crashes after forcing its bundle and
// restarts must come back in doubt, restore its acceptor state from
// the log, and resolve through the quorum.
func TestPaxosAcceptorRestartRecovers(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPaxos})
	c := eng.AddNode("C")
	c.AttachResource(protocol.NewStaticResource("rc"))
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		n := eng.AddNode(id)
		n.AttachResource(protocol.NewStaticResource("r" + string(id)))
	}
	tx := eng.Begin("C")
	for _, id := range []protocol.NodeID{"S1", "S2", "S3"} {
		if err := tx.Send("C", id, "work"); err != nil {
			t.Fatal(err)
		}
	}
	tx.CommitAsync("C")
	// S1 crashes after its Prepared and PaxAccept forces but before
	// the outcome arrives; C crashes too, so only recovery can help.
	eng.CrashAt("C", 2*time.Millisecond)
	eng.CrashAt("S1", 4*time.Millisecond)
	eng.Restart("S1", 300*time.Millisecond)
	eng.Drain()
	if eng.InDoubtAt("S1", tx.ID()) {
		t.Error("restarted acceptor still in doubt")
	}
	o, ok := eng.OutcomeAt("S1", tx.ID())
	if !ok {
		t.Fatal("S1 has no outcome after restart recovery")
	}
	oo, _ := eng.OutcomeAt("S2", tx.ID())
	if o != oo {
		t.Errorf("S1 outcome %v disagrees with S2 outcome %v", o, oo)
	}
}
