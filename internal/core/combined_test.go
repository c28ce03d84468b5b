package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// Tests for optimization combinations and interaction edge cases —
// the "intriguing combinations" the paper defers to future work.

func TestReadOnlyPlusUnsolicited(t *testing.T) {
	// An unsolicited voter whose resources are all read-only sends a
	// read-only vote spontaneously: one flow total for that member.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, UnsolicitedVote: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly)))
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "r"); err != nil {
		t.Fatal(err)
	}
	if err := tx.UnsolicitedVote("S"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	counts(t, eng, "S", 1, 0, 0)
}

func TestUnsolicitedVotePreemptsDelegation(t *testing.T) {
	// If the would-be last agent has already voted unsolicited, no
	// delegation happens: the coordinator decides normally.
	eng := NewEngine(Config{Variant: protocol.VariantPA,
		Options: Options{ReadOnly: true, UnsolicitedVote: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	if err := tx.UnsolicitedVote("S"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	// The coordinator owned the decision: its log has Committed, not
	// the delegation's Prepared.
	sawPrepared := false
	for _, r := range eng.LogRecords("C") {
		if r.Kind == "Prepared" {
			sawPrepared = true
		}
	}
	if sawPrepared {
		t.Error("coordinator delegated despite the unsolicited vote")
	}
}

func TestLastAgentChain(t *testing.T) {
	// Multiple last agents: the root delegates to A, which re-delegates
	// to its own subordinate B ("each last agent may choose one of its
	// subordinates to be a last agent").
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))
	tx := eng.Begin("C")
	tx.Send("C", "A", "x")
	tx.Send("A", "B", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	eng.FlushSessions()
	for _, node := range []protocol.NodeID{"C", "A", "B"} {
		if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeCommitted {
			t.Errorf("%s outcome = %v,%v", node, o, ok)
		}
	}
	// B, the final decider, sent exactly one flow (its Commit to A).
	if bc := eng.Metrics().Node("B"); bc.MessagesSent != 1 {
		t.Errorf("final agent sent %d flows, want 1", bc.MessagesSent)
	}
	// A relayed: one delegation in, one Commit up, one Commit... A
	// received the delegation, delegated to B, then must notify C.
	if o, ok := eng.OutcomeAt("A", tx.ID()); !ok || o != OutcomeCommitted {
		t.Errorf("A outcome = %v,%v", o, ok)
	}
}

func TestLastAgentChainAborts(t *testing.T) {
	// The deepest agent vetoes; the abort must propagate back up the
	// delegation chain to the root.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb", protocol.StaticVote(protocol.VoteNo)))
	tx := eng.Begin("C")
	tx.Send("C", "A", "x")
	tx.Send("A", "B", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	for _, node := range []protocol.NodeID{"C", "A"} {
		if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeAborted {
			t.Errorf("%s outcome = %v,%v", node, o, ok)
		}
	}
}

func TestVoteReliablePlusLastAgent(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA,
		Options: Options{ReadOnly: true, LastAgent: true, VoteReliable: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", protocol.StaticReliable()))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra", protocol.StaticReliable()))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	eng.FlushSessions()
	// Two flows total: the delegation and the Commit back.
	total := eng.Metrics().Total()
	if total.Flows != 2+1 { // +1 data
		t.Errorf("total flows = %d, want 3 (delegation, commit, data)", total.Flows)
	}
}

func TestEarlyAckStillCollectsDownstream(t *testing.T) {
	// Early ack lets the intermediate answer upstream immediately, but
	// it must still collect its own subtree's acks before forgetting.
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
	// M eventually wrote End (after L's ack) — i.e. it did not forget
	// before its subtree completed. End is non-forced, so look in the
	// trace, not the durable log.
	sawEnd := false
	for _, e := range eng.Trace().LogWrites() {
		if e.Node == "M" && e.Detail == "End" {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Error("intermediate never closed the transaction")
	}
	if o, ok := eng.OutcomeAt("L", tx.ID()); !ok || o != OutcomeCommitted {
		t.Errorf("L outcome = %v,%v", o, ok)
	}
}

func TestEarlyAckHidesLateHeuristicDamageFromRoot(t *testing.T) {
	// The §4 Commit Acknowledgment tradeoff: with early acks, damage
	// discovered below the intermediate after it acked cannot reach
	// the root's result even under PN.
	eng := NewEngine(Config{Variant: protocol.VariantPN,
		Options:    Options{EarlyAck: true},
		AckTimeout: 5 * time.Millisecond})
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
		t.Fatal("root never resumed")
	}
	// Damage happened...
	if eng.Metrics().HeuristicDamageTotal() == 0 {
		t.Fatal("expected heuristic damage at L")
	}
	// ...but the root's result was already delivered clean.
	if r.Outcome != OutcomeCommitted || r.Status.Damaged() {
		t.Fatalf("early-ack root result = %v damaged=%v; expected clean commit", r.Outcome, r.Status.Damaged())
	}
}

func TestLongLocksPlusLeaveOut(t *testing.T) {
	// A long-locks subordinate that also voted OK-to-leave-out: its
	// deferred ack must still reach the coordinator (at session flush)
	// even though the member then goes dormant.
	eng := NewEngine(Config{Variant: protocol.VariantPN,
		Options: Options{ReadOnly: true, LongLocks: true, LeaveOut: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", protocol.StaticLeaveOut()))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	p := tx.CommitAsync("C")
	eng.Drain()
	eng.FlushSessions()
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v done=%v", r, done)
	}
	// Next transaction leaves S out entirely.
	before := eng.Metrics().Node("S").MessagesReceived
	tx2 := eng.Begin("C")
	if r := tx2.Commit("C"); r.Outcome != OutcomeCommitted {
		t.Fatalf("tx2 = %+v", r)
	}
	if after := eng.Metrics().Node("S").MessagesReceived; after != before {
		t.Errorf("left-out member got %d messages", after-before)
	}
}

func TestAbortWithPreparedSubordinatesLogsPerVariant(t *testing.T) {
	// One sub votes NO after another already voted YES: the yes-voter
	// receives an Abort while prepared. PA: non-forced abort record,
	// no ack. Baseline/PN: forced + acked.
	for _, tc := range []struct {
		variant    protocol.Variant
		wantForced bool
		wantAck    bool
	}{
		{protocol.VariantPA, false, false},
		{protocol.VariantBaseline, true, true},
		{protocol.VariantPN, true, true},
	} {
		t.Run(tc.variant.String(), func(t *testing.T) {
			opts := Options{}
			if tc.variant == protocol.VariantPA {
				opts.ReadOnly = true
			}
			eng := NewEngine(Config{Variant: tc.variant, Options: opts})
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
			eng.AddNode("YES").AttachResource(protocol.NewStaticResource("ry"))
			eng.AddNode("NO").AttachResource(protocol.NewStaticResource("rn", protocol.StaticVote(protocol.VoteNo)))
			// Make the NO vote arrive after YES has prepared: order of
			// sends fixes delivery order deterministically.
			tx := eng.Begin("C")
			tx.Send("C", "YES", "a")
			tx.Send("C", "NO", "b")
			res := tx.Commit("C")
			if res.Outcome != OutcomeAborted {
				t.Fatalf("outcome = %v", res.Outcome)
			}
			// PA's abort record is non-forced and may never reach
			// stable storage; inspect the trace.
			var abortForced, sawAbort bool
			for _, e := range eng.Trace().LogWrites() {
				if e.Node == "YES" && e.Detail == "Aborted" {
					sawAbort = true
					abortForced = e.Forced
				}
			}
			if !sawAbort {
				t.Fatal("prepared sub never logged the abort")
			}
			if abortForced != tc.wantForced {
				t.Errorf("abort record forced = %v, want %v", abortForced, tc.wantForced)
			}
			ackSent := false
			for _, f := range eng.Trace().FlowStrings() {
				if f == "YES->C Ack("+tx.ID().String()+")" {
					ackSent = true
				}
			}
			if ackSent != tc.wantAck {
				t.Errorf("abort ack sent = %v, want %v", ackSent, tc.wantAck)
			}
		})
	}
}

func TestDuplicateOutcomeMessagesAreIdempotent(t *testing.T) {
	// After recovery a coordinator may resend Commit; the subordinate
	// must re-ack without re-logging or re-applying.
	eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	// Drop S's ack once by partitioning just before phase two ends.
	stepUntilPrepared(t, eng, "S")
	// Let the commit reach S, then lose its ack.
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
	eng.Partition("C", "S")
	eng.Schedule("C", 20*time.Millisecond, func() { eng.Heal("C", "S") })
	eng.Drain()

	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v done=%v", r, done)
	}
	// S logged Committed exactly once despite the duplicate Commit.
	n := 0
	for _, r := range eng.LogRecords("S") {
		if r.Kind == "Committed" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("S logged Committed %d times", n)
	}
	if c, ok := rs.Outcome(tx.ID()); !ok || !c {
		t.Errorf("resource outcome = %v,%v", c, ok)
	}
}

func TestStrayMessagesForUnknownTransactions(t *testing.T) {
	// Votes/acks/outcomes for transactions a node has never heard of
	// must not wedge the engine.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	// A normal transaction to establish links.
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("setup: %+v", res)
	}
	// Now replay the old transaction's Commit at S (stray duplicate).
	eng2 := eng // aliases for clarity
	tx2 := eng2.Begin("C")
	tx2.Send("C", "S", "w2")
	if res := tx2.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("second tx: %+v", res)
	}
}

func TestWaitForOutcomeAtIntermediate(t *testing.T) {
	// The intermediate cannot reach its leaf; under WaitForOutcome it
	// acks upstream with recovery-pending, and the root's result
	// carries the indication.
	eng := NewEngine(Config{Variant: protocol.VariantPN,
		Options:    Options{WaitForOutcome: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")

	p := tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "L")
	eng.Crash("L")
	eng.Restart("L", 80*time.Millisecond)
	eng.Drain()

	r, done := p.Result()
	if !done {
		t.Fatal("root never resumed")
	}
	if r.Outcome != OutcomeCommitted || !r.Status.RecoveryPending {
		t.Fatalf("result = %v pending=%v", r.Outcome, r.Status.RecoveryPending)
	}
	// Background recovery completed after L's restart.
	if o, ok := eng.OutcomeAt("L", tx.ID()); !ok || o != OutcomeCommitted {
		t.Errorf("L outcome = %v,%v", o, ok)
	}
}

func TestHeuristicAtDelegatingCoordinator(t *testing.T) {
	// The delegating coordinator is in doubt while awaiting the
	// agent's decision; its heuristic policy may fire there too.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	c := eng.AddNode("C", WithHeuristic(HeuristicPolicy{After: 8 * time.Millisecond, Commit: false}))
	c.AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")

	// The partition swallows the delegation itself: the coordinator
	// sits delegated with no answer coming.
	eng.Partition("C", "A")
	p := tx.CommitAsync("C")
	eng.Drain()
	// C decided heuristically (abort); A decided commit: divergence
	// exists, and C's heuristic record is on its log.
	sawHeuristic := false
	for _, r := range eng.LogRecords("C") {
		if r.Kind == "Heuristic" {
			sawHeuristic = true
		}
	}
	if !sawHeuristic {
		t.Fatal("delegating coordinator never logged its heuristic decision")
	}
	_ = p
}
