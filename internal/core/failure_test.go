package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// --- Coordinator crash between decision and propagation -------------------

func TestCoordinatorCrashAfterCommitForceResendsOutcome(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			eng := NewEngine(Config{Variant: v})
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
			rs := protocol.NewStaticResource("rs")
			eng.AddNode("S").AttachResource(rs)
			tx := eng.Begin("C")
			tx.Send("C", "S", "w")

			// Crash C immediately after its commit record is forced:
			// step the simulation until the Committed record exists,
			// then kill C before the Commit message is delivered.
			p := tx.CommitAsync("C")
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
					t.Fatal("never saw a Committed record")
				}
			}
			eng.Crash("C")
			eng.Drain()
			// S is in doubt (it voted yes; the Commit was lost with
			// C's outbox or C will resend on restart).
			eng.Restart("C", 10*time.Millisecond)
			eng.Drain()

			if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
				t.Fatalf("S outcome after recovery = %v,%v", o, ok)
			}
			if c, ok := rs.Outcome(tx.ID()); !ok || !c {
				t.Fatalf("S resource outcome = %v,%v", c, ok)
			}
			_ = p
		})
	}
}

// stepUntilSubPrepared drives the engine until S has sent its yes
// vote (a Prepared record exists at S).
func stepUntilPrepared(t *testing.T, eng *Engine, node protocol.NodeID) {
	t.Helper()
	for {
		for _, r := range eng.LogRecords(node) {
			if r.Kind == "Prepared" {
				return
			}
		}
		if !eng.Step() {
			t.Fatal("never saw a Prepared record")
		}
	}
}

func TestPASubInDoubtInquiresAndLearnsCommit(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	// S crashes right after voting; it recovers in doubt and must
	// inquire its coordinator.
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()

	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("root result = %+v done=%v", r, done)
	}
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S outcome = %v,%v", o, ok)
	}
}

func TestPAPresumedAbortAfterCoordinatorAmnesia(t *testing.T) {
	// Coordinator crashes before logging anything; the prepared
	// subordinate inquires and the PA presumption answers: abort.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("C")
	// S crashes too, then both restart: S finds its prepared record,
	// C finds nothing at all.
	eng.Crash("S")
	eng.Restart("C", 2*time.Millisecond)
	eng.Restart("S", 3*time.Millisecond)
	eng.Drain()

	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("S outcome = %v,%v, want presumed abort", o, ok)
	}
	if c, known := rs.Outcome(tx.ID()); !known || c {
		t.Fatalf("S resource = committed=%v known=%v, want aborted", c, known)
	}
}

func TestBaselineBlocksAfterCoordinatorAmnesia(t *testing.T) {
	// Same scenario under basic 2PC: the coordinator has no record
	// and no presumption exists — the subordinate stays blocked in
	// doubt. This is the baseline weakness the variants fix.
	eng := NewEngine(Config{Variant: protocol.VariantBaseline})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("C")
	eng.Crash("S")
	eng.Restart("C", 2*time.Millisecond)
	eng.Restart("S", 3*time.Millisecond)
	eng.Drain()

	if !eng.InDoubtAt("S", tx.ID()) {
		t.Fatal("baseline subordinate should remain blocked in doubt")
	}
}

func TestPNCoordinatorDrivenRecoveryAbortsPhaseOne(t *testing.T) {
	// PN coordinator crashes mid phase one (pending record forced,
	// no decision): on restart it aborts and drives its subordinates
	// out of doubt — no presumption needed.
	eng := NewEngine(Config{Variant: protocol.VariantPN})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("C")
	eng.Drain() // S's vote arrives at a dead coordinator
	eng.Restart("C", 5*time.Millisecond)
	eng.Drain()

	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("S outcome = %v,%v, want aborted by PN recovery", o, ok)
	}
	if eng.InDoubtAt("S", tx.ID()) {
		t.Fatal("S still in doubt after PN coordinator recovery")
	}
}

// --- Heuristic decisions ----------------------------------------------------

func TestHeuristicDamageReportedToRootUnderPN(t *testing.T) {
	// Root C — intermediate M — leaf L. The Commit to L is lost in a
	// partition; L heuristically aborts while the rest commits. Under
	// PN the damage report reaches the root.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L", WithHeuristic(HeuristicPolicy{After: 8 * time.Millisecond, Commit: false})).
		AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "L")
	eng.Partition("M", "L") // L never hears the outcome in time
	eng.Schedule("M", 30*time.Millisecond, func() { eng.Heal("M", "L") })
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never completed")
	}
	if r.Outcome != OutcomeHeuristicMixed {
		t.Fatalf("root outcome = %v, want heuristic-mixed", r.Outcome)
	}
	if !r.Status.Damaged() {
		t.Fatal("root did not see the damage report")
	}
	if eng.Metrics().HeuristicDamageTotal() == 0 {
		t.Fatal("damage not counted")
	}
}

func TestHeuristicDamageAbsorbedUnderPA(t *testing.T) {
	// The same scenario under PA: R*-style reporting stops at the
	// immediate coordinator; the root believes the commit was clean.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L", WithHeuristic(HeuristicPolicy{After: 8 * time.Millisecond, Commit: false})).
		AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "L")
	eng.Partition("M", "L")
	eng.Schedule("M", 30*time.Millisecond, func() { eng.Heal("M", "L") })
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never completed")
	}
	if r.Outcome != OutcomeCommitted {
		t.Fatalf("root outcome = %v, want (apparently clean) committed", r.Outcome)
	}
	// The damage exists — it was just not propagated to the root.
	if eng.Metrics().HeuristicDamageTotal() == 0 {
		t.Fatal("damage should have occurred at L")
	}
}

func TestHeuristicMatchingOutcomeIsNotDamage(t *testing.T) {
	// L heuristically COMMITS and the outcome is commit: a heuristic
	// decision was taken but no damage occurred.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("L", WithHeuristic(HeuristicPolicy{After: 8 * time.Millisecond, Commit: true})).
		AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "L", "y")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "L")
	eng.Partition("C", "L")
	eng.Schedule("C", 30*time.Millisecond, func() { eng.Heal("C", "L") })
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never completed")
	}
	if r.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.Status.Damaged() {
		t.Fatal("matching heuristic flagged as damage")
	}
	if len(r.Status.Heuristics) == 0 {
		t.Fatal("heuristic activity should still be reported under PN")
	}
	if eng.Metrics().HeuristicDamageTotal() != 0 {
		t.Fatal("spurious damage counted")
	}
}

// --- Wait For Outcome ---------------------------------------------------------

func TestWaitForOutcomeReturnsPending(t *testing.T) {
	eng := NewEngine(Config{
		Variant:    protocol.VariantPN,
		Options:    Options{WaitForOutcome: true},
		AckTimeout: 5 * time.Millisecond,
	})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("S")
	eng.Restart("S", 60*time.Millisecond) // recovers well after the retry window
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("wait-for-outcome: application never resumed")
	}
	if r.Outcome != OutcomeCommitted || !r.Status.RecoveryPending {
		t.Fatalf("result = outcome %v pending %v, want committed+pending", r.Outcome, r.Status.RecoveryPending)
	}
	// Background recovery finishes once S is back.
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S outcome = %v,%v after background recovery", o, ok)
	}
}

func TestWithoutWaitForOutcomeApplicationWaits(t *testing.T) {
	// Same failure without the option: the application does not get
	// control until recovery actually completes.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("S")
	eng.Restart("S", 20*time.Millisecond)
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("application blocked forever despite recovery")
	}
	if r.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.Status.RecoveryPending {
		t.Fatal("late-ack semantics: no pending flag once recovery completed")
	}
	// And completion must have taken at least the restart delay.
	if r.Latency < 20*time.Millisecond {
		t.Fatalf("latency %v too small: app resumed before S recovered", r.Latency)
	}
}

// --- Subordinate crash during phase two ---------------------------------------

func TestSubCrashAfterCommitBeforeAck(t *testing.T) {
	// S forces its Committed record, crashes before the ack leaves,
	// restarts, and must re-ack so the coordinator can finish.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 8 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
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
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()

	r, done := p.Result()
	if !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v done=%v", r, done)
	}
}

// --- Partition without crash ---------------------------------------------------

func TestPartitionDuringVotingAborts(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}, VoteTimeout: 10 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	eng.Partition("C", "S")
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted on vote timeout", res.Outcome)
	}
}
