package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
)

func TestEngineDefaults(t *testing.T) {
	eng := NewEngine(Config{})
	cfg := eng.Config()
	if cfg.NetDelay == 0 || cfg.ForceDelay == 0 || cfg.AckTimeout == 0 ||
		cfg.VoteTimeout == 0 || cfg.InquireRetry == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	eng := NewEngine(Config{})
	eng.AddNode("A")
	eng.AddNode("A")
}

func TestSetLatencyAffectsCommitLatency(t *testing.T) {
	run := func(d time.Duration) time.Duration {
		eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
		eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
		eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
		eng.SetLatency("C", "S", d)
		tx := eng.Begin("C")
		tx.Send("C", "S", "w")
		res := tx.Commit("C")
		if res.Outcome != OutcomeCommitted {
			t.Fatalf("outcome = %v", res.Outcome)
		}
		return res.Latency
	}
	fast := run(time.Millisecond)
	slow := run(20 * time.Millisecond)
	if slow <= fast {
		t.Fatalf("latency did not grow with link delay: %v vs %v", fast, slow)
	}
	// Four protocol hops (prepare, vote, commit, ack) plus one data hop
	// before commit initiation: the delta should be roughly 4×19ms.
	if delta := slow - fast; delta < 70*time.Millisecond {
		t.Fatalf("latency delta %v too small for 4 hops of extra delay", delta)
	}
}

func TestStepProcessesOneEvent(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	p := tx.CommitAsync("C")
	steps := 0
	for eng.Step() {
		steps++
		if steps > 10_000 {
			t.Fatal("runaway")
		}
	}
	if steps == 0 {
		t.Fatal("no events processed")
	}
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("result = %+v done=%v", r, done)
	}
}

func TestCrashAtSchedulesCrash(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	// Crash S 2ms into the commit: after receiving Prepare, before
	// much else.
	eng.CrashAt("S", 2*time.Millisecond)
	eng.Restart("S", 20*time.Millisecond)
	res := tx.Commit("C")
	// The transaction resolves one way or the other; both ends agree.
	if res.Outcome != OutcomeCommitted && res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	if o, ok := eng.OutcomeAt("S", tx.ID()); ok && o != res.Outcome && o != OutcomeUnknown {
		t.Fatalf("divergence: root %v, S %v", res.Outcome, o)
	}
}

func TestOutcomeAtUnknownNode(t *testing.T) {
	eng := NewEngine(Config{})
	if _, ok := eng.OutcomeAt("nope", protocol.TxID{}); ok {
		t.Fatal("unknown node reported an outcome")
	}
	if eng.InDoubtAt("nope", protocol.TxID{}) {
		t.Fatal("unknown node in doubt")
	}
	if eng.LogRecords("nope") != nil {
		t.Fatal("unknown node has log records")
	}
	if eng.Node("nope") != nil {
		t.Fatal("unknown node returned")
	}
}

func TestPartitionTraceEvents(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A")
	eng.AddNode("B")
	eng.Partition("A", "B")
	eng.Heal("A", "B")
	var saw []string
	for _, e := range eng.Trace().Events() {
		saw = append(saw, e.Detail)
	}
	joined := strings.Join(saw, ",")
	if !strings.Contains(joined, "partition") || !strings.Contains(joined, "heal") {
		t.Fatalf("trace missing partition/heal: %v", saw)
	}
}

func TestSendToUnknownNodeFails(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A")
	tx := eng.Begin("A")
	if err := tx.Send("A", "NOPE", "x"); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
	if err := tx.Send("NOPE", "A", "x"); err == nil {
		t.Fatal("send from unknown node succeeded")
	}
}

func TestSendFromCrashedNodeFails(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A")
	eng.AddNode("B")
	tx := eng.Begin("A")
	eng.Crash("A")
	if err := tx.Send("A", "B", "x"); err == nil {
		t.Fatal("send from crashed node succeeded")
	}
}

func TestCommitAtCrashedNodeReturnsError(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("A")
	eng.Crash("A")
	res := tx.Commit("A")
	if res.Err == nil {
		t.Fatal("commit at crashed node succeeded")
	}
}

func TestLocalOnlyCommit(t *testing.T) {
	// A node with no partners commits its local resources alone: one
	// forced commit record, no network traffic.
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN} {
		t.Run(v.String(), func(t *testing.T) {
			eng := NewEngine(Config{Variant: v})
			r := protocol.NewStaticResource("ra")
			eng.AddNode("A").AttachResource(r)
			tx := eng.Begin("A")
			res := tx.Commit("A")
			if res.Outcome != OutcomeCommitted {
				t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
			}
			if got := eng.Metrics().Total().Flows; got != 0 {
				t.Errorf("local commit sent %d messages", got)
			}
			if c, ok := r.Outcome(tx.ID()); !ok || !c {
				t.Errorf("resource outcome = %v,%v", c, ok)
			}
		})
	}
}

func TestDoubleCrashIsIdempotent(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A")
	eng.Crash("A")
	eng.Crash("A") // must not panic
	eng.Restart("A", time.Millisecond)
	eng.Drain()
	eng.Restart("A", time.Millisecond) // restart of a live node is a no-op
	eng.Drain()
}

func TestFlushSessionsOnEmptyEngine(t *testing.T) {
	eng := NewEngine(Config{})
	eng.AddNode("A")
	eng.FlushSessions() // must not panic or hang
}

func TestVirtualLatencyComposition(t *testing.T) {
	// Commit latency = data-independent: two hops of phase one + two
	// of phase two + forces. With D=1ms and F=0.5ms, the 2-node PA
	// commit takes 4D + 3F(on the critical path) = 5.5ms.
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	res := tx.Commit("C")
	if res.Latency != 5500*time.Microsecond {
		t.Fatalf("latency = %v, want 5.5ms (4 hops + 3 forces)", res.Latency)
	}
}

func TestEngineDeterminism(t *testing.T) {
	// The simulator must be fully deterministic: identical scripts
	// produce identical traces, event for event — the property the
	// table reproductions and CI assertions stand on.
	run := func() []string {
		eng := NewEngine(Config{Variant: protocol.VariantPN, AckTimeout: 5 * time.Millisecond})
		eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
		eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
		eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
		tx := eng.Begin("C")
		tx.Send("C", "M", "x")
		tx.Send("M", "L", "y")
		p := tx.CommitAsync("C")
		stepUntilPrepared(t, eng, "L")
		eng.Crash("L")
		eng.Restart("L", 7*time.Millisecond)
		eng.Drain()
		eng.FlushSessions()
		if _, done := p.Result(); !done {
			t.Fatal("run incomplete")
		}
		return eng.Trace().FlowStrings()
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
