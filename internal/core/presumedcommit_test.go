package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// Tests for the Presumed Commit extension variant: the dual of PA.
// Commits are cheap (no subordinate commit force, no commit acks);
// aborts are fully logged and acknowledged; the commit presumption is
// made safe by the coordinator's collecting record.

func TestPCCommitCounting(t *testing.T) {
	eng, res, _, _ := commitTwoNode(t, Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true}})
	if res.Err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v", res)
	}
	// Coordinator: data + Prepare + Commit; logs Collecting*,
	// Committed*, End → 3 writes, 2 forced.
	counts(t, eng, "C", 2+1, 3, 2)
	// Subordinate: a single flow (its vote — no commit ack); logs
	// Prepared*, Committed (non-forced), End → 3 writes, 1 forced.
	counts(t, eng, "S", 1, 3, 1)
}

func TestPCCommitSavingsVsPA(t *testing.T) {
	// PC's advantage grows with fan-out: each subordinate saves one
	// forced write and one flow in the commit case; the coordinator
	// pays one extra force total.
	run := func(v protocol.Variant, n int) (flows, forced int) {
		eng := NewEngine(Config{Variant: v, Options: Options{ReadOnly: true}})
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
		tx := eng.Begin("C")
		for i := 1; i < n; i++ {
			id := protocol.NodeID(string(rune('a'+i)) + "sub")
			eng.AddNode(id).AttachResource(protocol.NewStaticResource("r" + string(id)))
			if err := tx.Send("C", id, "w"); err != nil {
				t.Fatal(err)
			}
		}
		if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
			t.Fatalf("%v: %+v", v, res)
		}
		tt := eng.Metrics().ProtocolTriplet()
		return tt.Flows, tt.Forced
	}
	const n = 8
	paFlows, paForced := run(protocol.VariantPA, n)
	pcFlows, pcForced := run(protocol.VariantPC, n)
	if want := paFlows - (n - 1); pcFlows != want {
		t.Errorf("PC flows = %d, want %d (PA %d minus one ack per sub)", pcFlows, want, paFlows)
	}
	if want := paForced - (n - 1) + 1; pcForced != want {
		t.Errorf("PC forced = %d, want %d (PA %d minus per-sub commit force plus collecting)", pcForced, want, paForced)
	}
}

func TestPCAbortIsAckedAndForced(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("YES").AttachResource(protocol.NewStaticResource("ry"))
	eng.AddNode("NO").AttachResource(protocol.NewStaticResource("rn", protocol.StaticVote(protocol.VoteNo)))
	tx := eng.Begin("C")
	tx.Send("C", "YES", "a")
	tx.Send("C", "NO", "b")
	res := tx.Commit("C")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// The prepared yes-voter forced its abort record and acked it.
	var abortForced, ackSent bool
	for _, e := range eng.Trace().LogWrites() {
		if e.Node == "YES" && e.Detail == "Aborted" && e.Forced {
			abortForced = true
		}
	}
	for _, f := range eng.Trace().FlowStrings() {
		if f == "YES->C Ack("+tx.ID().String()+")" {
			ackSent = true
		}
	}
	if !abortForced {
		t.Error("PC abort record not forced at the subordinate")
	}
	if !ackSent {
		t.Error("PC abort not acknowledged")
	}
}

func TestPCPresumptionAnswersCommit(t *testing.T) {
	// The subordinate's non-forced commit record is lost in a crash;
	// it restarts in doubt and inquires. The coordinator has already
	// written End and crashed too (total amnesia at restart for this
	// inquiry — the End record survives, so the done-table answers;
	// force the presumption path by giving the coordinator a truly
	// empty post-End state via double crash after log truncation is
	// not realistic — instead verify the presumption rule directly).
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	// Crash S right after it prepares: its vote is already out.
	stepUntilPrepared(t, eng, "S")
	eng.Crash("S")
	eng.Restart("S", 10*time.Millisecond)
	eng.Drain()

	// S recovered in doubt, inquired, and learned commit (from the
	// coordinator's record or — had C forgotten — the presumption).
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S outcome = %v,%v", o, ok)
	}
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("root = %+v done=%v", r, done)
	}
}

func TestPCTotalAmnesiaPresumesCommit(t *testing.T) {
	// Force the pure-presumption path: S holds a prepared record for
	// a transaction the coordinator genuinely has no memory of.
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	s := eng.AddNode("S")
	rs := protocol.NewStaticResource("rs")
	s.AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	// Fabricate the in-doubt state: S logs Prepared (as if its vote
	// and everything after were lost to history), then both nodes
	// crash. C restarts with an empty log — total amnesia.
	s.logRec(tx.ID(), recPrepared, recPayload{Coord: "C"}, true)
	eng.Crash("C")
	eng.Crash("S")
	eng.Restart("C", 2*time.Millisecond)
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()

	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("presumption = %v,%v, want committed", o, ok)
	}
	if eng.InDoubtAt("S", tx.ID()) {
		t.Fatal("S still blocked under presumed commit")
	}
}

func TestPCCoordinatorCrashInPhaseOneAborts(t *testing.T) {
	// The collecting record makes the presumption safe: a coordinator
	// that crashes mid phase one finds the record on restart and
	// explicitly aborts (with acks) — so no prepared subordinate can
	// ever wrongly presume commit.
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	tx.CommitAsync("C")
	stepUntilPrepared(t, eng, "S")
	eng.Crash("C") // the vote is in flight or arriving; C never decides
	eng.Drain()
	eng.Restart("C", 10*time.Millisecond)
	eng.Drain()

	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeAborted {
		t.Fatalf("S outcome = %v,%v, want explicit abort from collecting-record recovery", o, ok)
	}
	if c, known := rs.Outcome(tx.ID()); !known || c {
		t.Fatalf("resource = %v,%v, want aborted", c, known)
	}
}

func TestPCSubCommitRecordLossIsHarmless(t *testing.T) {
	// The defining PC trade: the sub's commit record is non-forced.
	// Crash it right after commit; restart finds only Prepared,
	// inquires, gets commit again, and the resource re-commits
	// idempotently.
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	rs := protocol.NewStaticResource("rs")
	eng.AddNode("S").AttachResource(rs)
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")

	p := tx.CommitAsync("C")
	eng.Drain()
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("commit = %+v done=%v", r, done)
	}
	// S's Committed was non-forced: verify it is NOT in the durable log.
	for _, rec := range eng.LogRecords("S") {
		if rec.Kind == "Committed" {
			t.Fatal("PC subordinate force-logged its commit record")
		}
	}
	eng.Crash("S")
	eng.Restart("S", 5*time.Millisecond)
	eng.Drain()
	if o, ok := eng.OutcomeAt("S", tx.ID()); !ok || o != OutcomeCommitted {
		t.Fatalf("S after restart = %v,%v", o, ok)
	}
}

func TestPCCascadedTree(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPC, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	res := tx.Commit("C")
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	for _, node := range []protocol.NodeID{"C", "M", "L"} {
		if o, ok := eng.OutcomeAt(node, tx.ID()); !ok || o != OutcomeCommitted {
			t.Errorf("%s outcome = %v,%v", node, o, ok)
		}
	}
	// No ack flows anywhere in the commit case.
	for _, f := range eng.Trace().FlowStrings() {
		if len(f) >= 4 && f[len(f)-4:] == "Ack)" {
			t.Errorf("unexpected ack flow under PC: %s", f)
		}
	}
}
