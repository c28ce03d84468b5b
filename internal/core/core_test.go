package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// twoNode builds the canonical Table 2 configuration: a coordinator C
// with one update resource, and one subordinate S with one update
// resource.
func twoNode(t *testing.T, cfg Config) (*Engine, *protocol.StaticResource, *protocol.StaticResource) {
	t.Helper()
	eng := NewEngine(cfg)
	c := eng.AddNode("C")
	s := eng.AddNode("S")
	rc := protocol.NewStaticResource("rc")
	rs := protocol.NewStaticResource("rs")
	c.AttachResource(rc)
	s.AttachResource(rs)
	return eng, rc, rs
}

// counts asserts the per-node (flows, logs, forced) triplet.
func counts(t *testing.T, eng *Engine, node string, flows, logs, forced int) {
	t.Helper()
	c := eng.Metrics().Node(node)
	if c.MessagesSent != flows || c.LogWrites != logs || c.ForcedWrites != forced {
		t.Errorf("%s: (flows,logs,forced) = (%d,%d,%d), want (%d,%d,%d)",
			node, c.MessagesSent, c.LogWrites, c.ForcedWrites, flows, logs, forced)
	}
}

func commitTwoNode(t *testing.T, cfg Config) (*Engine, Result, *protocol.StaticResource, *protocol.StaticResource) {
	t.Helper()
	eng, rc, rs := twoNode(t, cfg)
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "work"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	return eng, res, rc, rs
}

// --- Table 2: Basic 2PC -------------------------------------------------

func TestTable2Basic2PCCommit(t *testing.T) {
	eng, res, rc, rs := commitTwoNode(t, Config{Variant: protocol.VariantBaseline})
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	// Coordinator: 2 flows (Prepare, Commit); 2 logs, 1 forced
	// (Committed*, End). Data message adds 1 flow: account it.
	counts(t, eng, "C", 2+1, 2, 1)
	// Subordinate: 2 flows (VoteYes, Ack); 3 logs, 2 forced
	// (Prepared*, Committed*, End).
	counts(t, eng, "S", 2, 3, 2)
	if c, ok := rc.Outcome(protocol.TxID{Origin: "C", Seq: 1}); !ok || !c {
		t.Fatal("coordinator resource did not commit")
	}
	if c, ok := rs.Outcome(protocol.TxID{Origin: "C", Seq: 1}); !ok || !c {
		t.Fatal("subordinate resource did not commit")
	}
}

func TestTable2Basic2PCAbortByVote(t *testing.T) {
	cfg := Config{Variant: protocol.VariantBaseline}
	eng := NewEngine(cfg)
	c := eng.AddNode("C")
	s := eng.AddNode("S")
	c.AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteNo))
	s.AttachResource(rs)

	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "work"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	// Baseline aborts are logged (forced) at the coordinator and the
	// transaction ends cleanly.
	cc := eng.Metrics().Node("C")
	if cc.ForcedWrites != 1 {
		t.Errorf("coordinator forced writes = %d, want 1 (Aborted*)", cc.ForcedWrites)
	}
}

// --- Table 2: Presumed Nothing ------------------------------------------

func TestTable2PNCommit(t *testing.T) {
	eng, res, _, _ := commitTwoNode(t, Config{Variant: protocol.VariantPN})
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	// Coordinator: 2 flows + data; 3 logs, 2 forced (Pending*,
	// Committed*, End).
	counts(t, eng, "C", 2+1, 3, 2)
	// Subordinate: 2 flows; 4 logs, 3 forced (AgentPending*,
	// Prepared*, Committed*, End).
	counts(t, eng, "S", 2, 4, 3)
}

// --- Table 2: Presumed Abort --------------------------------------------

func TestTable2PACommit(t *testing.T) {
	eng, res, _, _ := commitTwoNode(t, Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	counts(t, eng, "C", 2+1, 2, 1)
	counts(t, eng, "S", 2, 3, 2)
}

func TestTable2PAAbortCase(t *testing.T) {
	// The table's abort case: the subordinate votes NO. Coordinator: 2
	// flows (Prepare, then nothing — the NO voter aborted itself; but
	// abort initiation to others — none here), 0 logs. Subordinate: 1
	// flow (VoteNo), 0 logs.
	cfg := Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}}
	eng := NewEngine(cfg)
	c := eng.AddNode("C")
	s := eng.AddNode("S")
	c.AttachResource(protocol.NewStaticResource("rc"))
	s.AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteNo)))

	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "work"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Coordinator: Prepare + data; no logging under PA abort.
	counts(t, eng, "C", 1+1, 0, 0)
	counts(t, eng, "S", 1, 0, 0)
}

// TestOnePhaseAbortedYesVoterWritesNothing pins the simulator's side
// of a difference between the engines (DESIGN §3): under 1PC a leaf's
// yes vote is logless, and when another leaf's no aborts the
// transaction the yes-voter has no record to abort, so it writes
// none, and neither does the coordinator, which logged nothing either.
// The runtime's yes-voter writes a lazy Aborted and an End
// (live.TestLiveLoglessYesVoterAborted).
func TestOnePhaseAbortedYesVoterWritesNothing(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.Variant1PC})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S1").AttachResource(protocol.NewStaticResource("r1"))
	eng.AddNode("S2").AttachResource(protocol.NewStaticResource("r2", protocol.StaticVote(protocol.VoteNo)))
	tx := eng.Begin("C")
	for _, s := range []string{"S1", "S2"} {
		if err := tx.Send("C", protocol.NodeID(s), "work"); err != nil {
			t.Fatal(err)
		}
	}
	if res := tx.Commit("C"); res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	if o, ok := eng.OutcomeAt("S1", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("S1 outcome = %v, %v; want aborted", o, ok)
	}
	// Data, two Prepares and the Abort to S1; the yes vote; the no vote.
	counts(t, eng, "C", 2+2+1, 0, 0)
	counts(t, eng, "S1", 1, 0, 0)
	counts(t, eng, "S2", 1, 0, 0)
}

func TestTable2PAReadOnlyCase(t *testing.T) {
	// Read-only case: 1 flow each (Prepare out, VoteReadOnly back),
	// no logging anywhere.
	cfg := Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}}
	eng := NewEngine(cfg)
	c := eng.AddNode("C")
	s := eng.AddNode("S")
	c.AttachResource(protocol.NewStaticResource("rc", protocol.StaticVote(protocol.VoteReadOnly)))
	s.AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly)))

	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "read"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	counts(t, eng, "C", 1+1, 0, 0)
	counts(t, eng, "S", 1, 0, 0)
}

// --- Atomicity sanity ----------------------------------------------------

func TestAllVariantsAgreeOnOutcome(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			eng := NewEngine(Config{Variant: v})
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
			eng.AddNode("S1").AttachResource(protocol.NewStaticResource("r1"))
			eng.AddNode("S2").AttachResource(protocol.NewStaticResource("r2"))
			tx := eng.Begin("C")
			if err := tx.Send("C", "S1", "a"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Send("C", "S2", "b"); err != nil {
				t.Fatal(err)
			}
			res := tx.Commit("C")
			if res.Outcome != OutcomeCommitted {
				t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
			}
			for _, node := range []protocol.NodeID{"C", "S1", "S2"} {
				if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeCommitted {
					t.Errorf("%s outcome = %v,%v", node, o, ok)
				}
			}
		})
	}
}

func TestExplicitAbort(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPN})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "w"); err != nil {
		t.Fatal(err)
	}
	res := tx.Abort("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if c, ok := rs.Outcome(tx.ID()); !ok || c {
		t.Fatalf("subordinate resource outcome = %v,%v, want abort", c, ok)
	}
}

func TestCascadedTreeCommit(t *testing.T) {
	// C -> M -> L : cascaded coordinator in the middle (Figure 2).
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			eng := NewEngine(Config{Variant: v})
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
			eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
			eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
			tx := eng.Begin("C")
			if err := tx.Send("C", "M", "x"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Send("M", "L", "y"); err != nil {
				t.Fatal(err)
			}
			res := tx.Commit("C")
			if res.Outcome != OutcomeCommitted {
				t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
			}
			for _, node := range []protocol.NodeID{"C", "M", "L"} {
				if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeCommitted {
					t.Errorf("%s outcome = %v,%v", node, o, ok)
				}
			}
		})
	}
}

func TestDualInitiationAborts(t *testing.T) {
	// Two peers initiate commit for the same transaction: it aborts
	// (§3 PN rules: two TMs may not own the decision).
	eng := NewEngine(Config{Variant: protocol.VariantPN})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))
	tx := eng.Begin("A")
	if err := tx.Send("A", "B", "x"); err != nil {
		t.Fatal(err)
	}
	pa := tx.CommitAsync("A")
	pb := tx.CommitAsync("B")
	eng.Drain()
	ra, da := pa.Result()
	rb, db := pb.Result()
	if !da || !db {
		t.Fatalf("pending: %v %v", da, db)
	}
	if ra.Outcome == OutcomeCommitted && rb.Outcome == OutcomeCommitted {
		t.Fatalf("both initiators committed: %v / %v", ra.Outcome, rb.Outcome)
	}
	if ra.Outcome != OutcomeAborted {
		t.Errorf("A outcome = %v, want aborted", ra.Outcome)
	}
}

// TestAbortAtFirstNo: the root acts on the first no, as the runtime
// does (protocol.NextAbort). S1 votes no while S2, behind a slow link,
// is still silent: the transaction aborts at once, well before the vote
// timeout, and S2 is sent the Abort before it has even voted.
func TestAbortAtFirstNo(t *testing.T) {
	const slow = time.Second
	eng := NewEngine(Config{Variant: protocol.VariantPA, VoteTimeout: 10 * slow})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S1").AttachResource(protocol.NewStaticResource("r1", protocol.StaticVote(protocol.VoteNo)))
	eng.AddNode("S2").AttachResource(protocol.NewStaticResource("r2"))
	eng.SetLatency("C", "S2", slow)
	tx := eng.Begin("C")
	for _, s := range []protocol.NodeID{"S1", "S2"} {
		if err := tx.Send("C", s, "work"); err != nil {
			t.Fatal(err)
		}
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted || res.Latency >= slow {
		t.Fatalf("outcome %v after %v, want aborted well within S2's %v link", res.Outcome, res.Latency, slow)
	}
	eng.Drain()
	var abortAt, voteAt time.Duration = -1, -1
	for _, e := range eng.Trace().Events() {
		switch {
		case e.Kind != trace.KindSend:
		case e.Node == "C" && e.Peer == "S2" && e.Detail == "Abort("+tx.ID().String()+")":
			abortAt = e.At
		case e.Node == "S2" && e.Peer == "C" && e.Detail == "VoteYes("+tx.ID().String()+")":
			voteAt = e.At
		}
	}
	if abortAt < 0 || voteAt >= 0 && abortAt >= voteAt {
		t.Fatalf("C sent S2 the Abort at %v, S2 voted at %v: want the Abort sent before the vote", abortAt, voteAt)
	}
}

func TestSecondCommitAtSameNodeFails(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))
	tx := eng.Begin("A")
	if err := tx.Send("A", "B", "x"); err != nil {
		t.Fatal(err)
	}
	p1 := tx.CommitAsync("A")
	p2 := tx.CommitAsync("A")
	eng.Drain()
	if r, done := p1.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("first commit: %+v done=%v", r, done)
	}
	if r, done := p2.Result(); !done || r.Err == nil {
		t.Fatalf("second commit should fail: %+v done=%v", r, done)
	}
}
