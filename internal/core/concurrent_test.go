package core

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
)

// The simulator supports multiple in-flight transactions: contexts
// are keyed by TxID at every node and protocol messages carry the id.

func TestTwoOverlappingTransactions(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))

	// tx1: A -> B, tx2: C -> B. Both commit concurrently: interleave
	// their initiations before draining.
	tx1 := eng.Begin("A")
	if err := tx1.Send("A", "B", "w1"); err != nil {
		t.Fatal(err)
	}
	tx2 := eng.Begin("C")
	if err := tx2.Send("C", "B", "w2"); err != nil {
		t.Fatal(err)
	}
	p1 := tx1.CommitAsync("A")
	p2 := tx2.CommitAsync("C")
	eng.Drain()

	r1, done1 := p1.Result()
	r2, done2 := p2.Result()
	if !done1 || !done2 {
		t.Fatalf("done = %v,%v", done1, done2)
	}
	// B is a session partner of both A and C... under the peer model B
	// would drag A into C's commit via its established links! But B is
	// a SUBORDINATE in both (it received Prepare), and a subordinate
	// only prepares its own downstream partners — A is not downstream
	// of B for tx2 (no data flowed), but the link exists. The PN
	// inclusion rule would prepare A for tx2 as well, so both
	// transactions committing proves the id-separation works.
	if r1.Outcome != OutcomeCommitted || r2.Outcome != OutcomeCommitted {
		t.Fatalf("outcomes = %v, %v", r1.Outcome, r2.Outcome)
	}
}

func TestManySequentialTransactionsAccumulateMetrics(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.DisableTrace()
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))
	const rounds = 25
	for i := 0; i < rounds; i++ {
		tx := eng.Begin("A")
		if err := tx.Send("A", "B", fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
		if res := tx.Commit("A"); res.Outcome != OutcomeCommitted {
			t.Fatalf("round %d: %+v", i, res)
		}
	}
	tt := eng.Metrics().ProtocolTriplet()
	if tt.Flows != 4*rounds {
		t.Fatalf("flows = %d, want %d", tt.Flows, 4*rounds)
	}
	if tt.Forced != 3*rounds {
		t.Fatalf("forced = %d, want %d", tt.Forced, 3*rounds)
	}
	if got := eng.Metrics().Outcomes()["committed"]; got != rounds {
		t.Fatalf("committed outcomes = %d", got)
	}
	if n := eng.Metrics().Snapshot().Latency.Count; n != rounds {
		t.Fatalf("latencies recorded = %d", n)
	}
}

func TestInterleavedCommitAndAbort(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPN})
	rb := protocol.NewStaticResource("rb")
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(rb)

	tx1 := eng.Begin("A")
	tx1.Send("A", "B", "keep")
	tx2 := eng.Begin("A")
	tx2.Send("A", "B", "discard")

	p1 := tx1.CommitAsync("A")
	r2 := tx2.Abort("A") // full drain happens here
	if r2.Outcome != OutcomeAborted {
		t.Fatalf("tx2 = %v", r2.Outcome)
	}
	r1, done := p1.Result()
	if !done || r1.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v done=%v", r1, done)
	}
	if c, ok := rb.Outcome(tx1.ID()); !ok || !c {
		t.Fatalf("rb tx1 = %v,%v", c, ok)
	}
	if c, ok := rb.Outcome(tx2.ID()); !ok || c {
		t.Fatalf("rb tx2 = %v,%v, want aborted", c, ok)
	}
}

func TestPerTransactionStateIsolationAfterFailure(t *testing.T) {
	// A crashed transaction at B must not contaminate a following one.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true},
		AckTimeout: 5_000_000, VoteTimeout: 5_000_000})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(protocol.NewStaticResource("rb"))

	tx1 := eng.Begin("A")
	tx1.Send("A", "B", "w1")
	p1 := tx1.CommitAsync("A")
	stepUntilPrepared(t, eng, "B")
	eng.Crash("B")
	eng.Restart("B", 1_000_000) // 1ms later
	eng.Drain()
	if r, done := p1.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v done=%v", r, done)
	}

	tx2 := eng.Begin("A")
	tx2.Send("A", "B", "w2")
	if res := tx2.Commit("A"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx2 after B's crash/restart = %+v", res)
	}
}
