package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// Additional recovery scenarios: cascaded trees, double faults,
// restart idempotence, and inquiry behavior against forgotten
// transactions.

func TestPNCascadedCoordinatorCrashRecovery(t *testing.T) {
	// The intermediate M crashes after forcing its Pending record and
	// propagating prepares; L is prepared. On restart M finds the
	// pending record, aborts its phase-one transaction, and drives L
	// out of doubt; the root's vote timeout aborts independently —
	// everyone converges on abort.
	eng := NewEngine(Config{Variant: protocol.VariantPN,
		VoteTimeout: 15 * time.Millisecond, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "L") // M's pending is forced before L's prepare
	eng.Crash("M")
	eng.Restart("M", 30*time.Millisecond)
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never resumed")
	}
	if r.Outcome != OutcomeAborted {
		t.Fatalf("root outcome = %v, want aborted", r.Outcome)
	}
	if o, ok := eng.OutcomeAt("L", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("L outcome = %v,%v, want aborted via M's PN recovery", o, ok)
	}
	if eng.InDoubtAt("L", tx.ID()) {
		t.Fatal("L still in doubt")
	}
}

func TestRootCrashAfterCommittedBeforeEndResumesAckCollection(t *testing.T) {
	// The root forces Committed, sends Commit, then crashes before the
	// acks arrive. On restart its committed record drives a resend;
	// the already-committed sub re-acks; the root writes End.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	// Run until S has committed (so its ack is in flight), then crash C.
	for {
		committed := false
		for _, r := range eng.LogRecords("S") {
			if r.Kind == "Committed" {
				committed = true
			}
		}
		if committed {
			break
		}
		if !eng.Step() {
			t.Fatal("S never committed")
		}
	}
	eng.Crash("C")
	eng.Restart("C", 10*time.Millisecond)
	eng.Drain()

	// After recovery C must have completed ack collection: its trace
	// contains an End write following the restart.
	sawRestart, sawEndAfter := false, false
	for _, e := range eng.Trace().Events() {
		if e.Node == "C" && e.Detail == "restart: scanning log" {
			sawRestart = true
		}
		if sawRestart && e.Node == "C" && e.Kind == 2 /* KindLogWrite */ && e.Detail == "End" {
			sawEndAfter = true
		}
	}
	if !sawRestart {
		t.Fatal("no restart trace")
	}
	if !sawEndAfter {
		t.Fatal("recovered coordinator never finished ack collection (no End)")
	}
}

func TestDoubleFaultBothCrashPA(t *testing.T) {
	// Coordinator and subordinate both crash after the commit record
	// was forced at the coordinator but before the sub heard anything.
	// PA: the sub restarts in doubt, inquires, and gets the commit.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	for {
		committed := false
		for _, r := range eng.LogRecords("C") {
			if r.Kind == "Committed" {
				committed = true
			}
		}
		if committed {
			break
		}
		if !eng.Step() {
			t.Fatal("C never committed")
		}
	}
	eng.Crash("C")
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Restart("C", 8*time.Millisecond)
	eng.Drain()

	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S outcome = %v,%v, want committed", o, ok)
	}
	if eng.InDoubtAt("S", tx.ID()) {
		t.Fatal("S still in doubt")
	}
}

func TestInquiryAfterCoordinatorForgot(t *testing.T) {
	// The coordinator completed and wrote End long ago; a duplicate
	// inquiry arrives (e.g. a sub restarted twice). PA answers from
	// the recovered done-table after its own restart.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("commit: %+v", res)
	}
	// C crashes and restarts: the done-table must be rebuilt from the
	// log (Committed + End records survive... End is non-forced, so it
	// may be lost; then C resumes phase two instead, which is also
	// correct).
	eng.Crash("C")
	eng.Restart("C", 2*time.Millisecond)
	// S crashes too and restarts in doubt? S completed cleanly, so its
	// restart has nothing to do. Instead, force an inquiry manually by
	// crashing S after re-preparing is impossible — so emulate a
	// duplicate inquiry with a fresh in-doubt S: crash S, restart, and
	// let its (already complete) state answer.
	eng.Drain()
	if o, ok := eng.OutcomeAt("C", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("C lost the outcome across restart: %v,%v", o, ok)
	}
}

func TestRestartIsIdempotent(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()
	// Crash and restart S again after everything completed.
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v done=%v", r, done)
	}
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S outcome after double restart = %v,%v", o, ok)
	}
}

func TestPNLeafCrashBetweenPendingAndPrepared(t *testing.T) {
	// Contrived but covered: a PN leaf forces AgentPending then
	// crashes before Prepared reaches the log... our implementation
	// forces them back-to-back, so instead test the recovery scan rule
	// directly: an AgentPending-only log resolves to aborted.
	eng := NewEngine(Config{Variant: protocol.VariantPN, VoteTimeout: 10 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	s := eng.AddNode("S")
	s.AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	// Write an AgentPending record by hand, as if the crash had split
	// the two forces, then crash and restart.
	s.logRec(tx.ID(), protocol.LogRecord{Kind: protocol.RecAgentPending, Coord: "C"}, true)
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("AgentPending-only recovery = %v,%v, want aborted", o, ok)
	}
}

func TestRecoveredHeuristicReportsToRestartedCoordinator(t *testing.T) {
	// A sub takes a heuristic decision and crashes; after restart it
	// still remembers (forced Heuristic record) and reports the damage
	// when the outcome arrives.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 4 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S", WithHeuristic(HeuristicPolicy{After: 6 * time.Millisecond, Commit: false})).
		AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Partition("C", "S")
	// Let the heuristic fire, then crash and restart S, then heal.
	eng.Schedule("C", 14*time.Millisecond, func() { eng.Crash("S") })
	eng.Restart("S", 20*time.Millisecond)
	eng.Schedule("C", 26*time.Millisecond, func() { eng.Heal("C", "S") })
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never resumed")
	}
	if !r.Status.Damaged() {
		t.Fatalf("damage lost across the sub's crash: %+v", r.Status)
	}
	if r.Outcome != OutcomeHeuristicMixed {
		t.Fatalf("outcome = %v, want heuristic-mixed", r.Outcome)
	}
}

// TestNoInformationInquiryAnswersFromRow asks a coordinator about a
// transaction it has no trace of: under every variant the answer is
// the row's presumption, PN's InProgress included — the same answer
// the live runtime gives.
func TestNoInformationInquiryAnswersFromRow(t *testing.T) {
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		eng := NewEngine(Config{Variant: v})
		eng.AddNode("C")
		eng.AddNode("S1")
		const tx = "C:99"
		eng.Node("C").handleInquire("S1", protocol.Message{Type: protocol.MsgInquire, Tx: tx, Presume: v})
		eng.Drain()
		want := protocol.Message{Type: protocol.MsgOutcome, Tx: tx, Outcome: protocol.Answer(protocol.KnowsNothing, v, v)}.Label() + "(" + tx + ")"
		answered := false
		for _, e := range eng.Trace().Events() {
			if e.Kind == trace.KindSend && e.Node == "C" {
				if e.Detail != want {
					t.Errorf("%v: C sent %q, want %q", v, e.Detail, want)
				}
				answered = true
			}
		}
		if !answered {
			t.Errorf("%v: no answer to the inquiry", v)
		}
	}
}
