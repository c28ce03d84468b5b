package check

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// TestInjectedAtomicityBugSim plants an atomicity bug in the
// simulator — the first Commit message on the wire is flipped to an
// Abort — and requires the oracle to convict it. This is the
// harness's own smoke test: a checker that cannot see a flipped
// outcome is not checking anything.
func TestInjectedAtomicityBugSim(t *testing.T) {
	const seed = int64(424242)
	s := FromSeed(seed) // any schedule works; the flip alone must convict
	s.Engine = "sim"
	s.Variant = core.VariantPA
	s.CrashCoord, s.CrashSub = false, false
	s.PartitionSub, s.LossPermil = -1, 0
	s.Subs = 2

	eng := core.NewEngine(core.Config{Variant: s.Variant})
	for _, name := range s.Nodes() {
		eng.AddNode(core.NodeID(name)).AttachResource(core.NewStaticResource(name + "-res"))
	}
	flipped := false
	eng.SetMessageFilter(func(from, to core.NodeID, m protocol.Message) (protocol.Message, bool) {
		if m.Type == protocol.MsgCommit && !flipped {
			flipped = true
			m.Type = protocol.MsgAbort
		}
		return m, true
	})
	tx := eng.Begin("C")
	for i := 0; i < s.Subs; i++ {
		if err := tx.Send("C", core.NodeID(SubName(i)), "work"); err != nil {
			t.Fatal(err)
		}
	}
	tx.CommitAsync("C")
	eng.Drain()
	eng.FlushSessions()
	eng.Drain()

	if !flipped {
		t.Fatal("injection never fired: no Commit message crossed the wire")
	}
	vs := Check(Run{Variant: s.Variant, Events: eng.Trace().Events()})
	wantRule(t, vs, "AC1")
	t.Logf("oracle convicted the injected flip (seed=%d): %v", seed, vs)
}

// TestInjectedAtomicityBugLive does the same through the live
// runtime's real transport, flipping the outcome with a
// netsim.Transform. Must convict well inside a minute.
func TestInjectedAtomicityBugLive(t *testing.T) {
	start := time.Now()
	const seed = int64(424243)
	trc := trace.New()
	var flipped atomic.Bool
	net := netsim.NewChanNetwork(netsim.WithTransform(
		func(from, to string, m protocol.Message) (protocol.Message, bool) {
			if m.Type == protocol.MsgCommit && flipped.CompareAndSwap(false, true) {
				m.Type = protocol.MsgAbort
			}
			return m, true
		}))
	mk := func(name string) *live.Participant {
		p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]core.Resource{core.NewStaticResource(name + "-res")},
			live.WithVariant(core.VariantBaseline),
			live.WithTrace(trc),
			live.WithTimeout(liveTimeout, liveTimeout),
			live.WithRetry(liveRetry()),
			live.WithRetrySeed(seed),
		)
		p.Start()
		return p
	}
	c, s1 := mk("C"), mk("S1")
	defer c.Stop()
	defer s1.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
	defer cancel()
	c.Commit(ctx, "C:1", []string{"S1"})
	time.Sleep(30 * time.Millisecond)

	if !flipped.Load() {
		t.Fatal("injection never fired: no Commit message crossed the wire")
	}
	final := map[string]Final{
		"C":  {Outcomes: c.Decided()},
		"S1": {Outcomes: s1.Decided()},
	}
	vs := Check(Run{Variant: core.VariantBaseline, Events: trc.Events(), Final: final})
	wantRule(t, vs, "AC1")
	if el := time.Since(start); el > time.Minute {
		t.Errorf("conviction took %v; the acceptance bar is under a minute", el)
	}
	t.Logf("oracle convicted the injected flip in %v (seed=%d): %v", time.Since(start), seed, vs)
}

// paxosInjectFleet builds a live Paxos Commit fleet on a channel
// network, with per-node protocol-bug hooks and an optional message
// transform and coordinator failpoint.
func paxosInjectFleet(t *testing.T, seed int64, subs []string, hooks map[string]core.TestHooks,
	transform netsim.Transform, coordFail func(string) bool) (map[string]*live.Participant, *trace.Tracer) {
	t.Helper()
	trc := trace.New()
	var netOpts []netsim.ChanOption
	if transform != nil {
		netOpts = append(netOpts, netsim.WithTransform(transform))
	}
	net := netsim.NewChanNetwork(netOpts...)
	parts := make(map[string]*live.Participant)
	for i, name := range append([]string{"C"}, subs...) {
		opts := []live.Option{
			live.WithVariant(core.VariantPaxos),
			live.WithTrace(trc),
			live.WithTimeout(liveTimeout, liveTimeout),
			live.WithRetry(liveRetry()),
			live.WithRetrySeed(seed + int64(i)),
			live.WithHooks(hooks[name]),
		}
		if name == "C" && coordFail != nil {
			opts = append(opts, live.WithFailpoint(coordFail))
		}
		p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]core.Resource{core.NewStaticResource(name + "-res")}, opts...)
		p.Start()
		t.Cleanup(p.Stop)
		parts[name] = p
	}
	return parts, trc
}

// TestInjectedAcceptorForceBugLive plants the first deliberate Paxos
// Commit bug — acceptors acknowledge their ballot-0 acceptance
// without forcing it (core.TestHooks.SkipAcceptorForce) — and
// requires the oracle to convict it under AC3. The commit itself
// SUCCEEDS; only the trace betrays that the quorum's durability
// promise was hollow.
func TestInjectedAcceptorForceBugLive(t *testing.T) {
	start := time.Now()
	const seed = int64(424244)
	subs := []string{"S1", "S2"}
	hooks := map[string]core.TestHooks{
		"C":  {SkipAcceptorForce: true},
		"S1": {SkipAcceptorForce: true},
		"S2": {SkipAcceptorForce: true},
	}
	parts, trc := paxosInjectFleet(t, seed, subs, hooks, nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
	defer cancel()
	if out, err := parts["C"].Commit(ctx, "C:1", subs); err != nil || out != live.Committed {
		t.Fatalf("commit = %v, %v (the bug must not block the happy path)", out, err)
	}
	time.Sleep(30 * time.Millisecond)

	final := make(map[string]Final)
	for name, p := range parts {
		final[name] = Final{Outcomes: p.Decided()}
	}
	vs := Check(Run{Variant: core.VariantPaxos, Events: trc.Events(), Final: final})
	wantRule(t, vs, "AC3")
	if el := time.Since(start); el > time.Minute {
		t.Errorf("conviction took %v; the acceptance bar is under a minute", el)
	}
	t.Logf("oracle convicted the unforced acceptance in %v (seed=%d): %v", time.Since(start), seed, vs)
}

// paxosInjectSim builds a simulated Paxos Commit tree of C and subs
// with the given protocol-bug hooks, every node holding one resource.
func paxosInjectSim(hooks core.TestHooks, subs []string) *core.Engine {
	eng := core.NewEngine(core.Config{Variant: core.VariantPaxos, Hooks: hooks})
	for _, name := range append([]string{"C"}, subs...) {
		eng.AddNode(core.NodeID(name)).AttachResource(core.NewStaticResource(name + "-res"))
	}
	return eng
}

// paxosCommitSim commits one transaction from C across subs and runs
// the simulation to quiescence.
func paxosCommitSim(t *testing.T, eng *core.Engine, subs []string) *core.Tx {
	t.Helper()
	tx := eng.Begin("C")
	for _, sub := range subs {
		if err := tx.Send("C", core.NodeID(sub), "work"); err != nil {
			t.Fatal(err)
		}
	}
	tx.CommitAsync("C")
	eng.Drain()
	eng.FlushSessions()
	eng.Drain()
	return tx
}

// TestInjectedAcceptorForceBugSim plants the acceptor-force bug
// (core.TestHooks.SkipAcceptorForce) in the simulator: the commit
// succeeds, and the oracle must convict the hollow quorum under AC3
// from the trace alone, as it does for the live runtime.
func TestInjectedAcceptorForceBugSim(t *testing.T) {
	const seed = int64(424244)
	subs := []string{"S1", "S2"}
	eng := paxosInjectSim(core.TestHooks{SkipAcceptorForce: true}, subs)
	tx := paxosCommitSim(t, eng, subs)

	if o, ok := eng.OutcomeAt("C", tx.ID()); !ok || o != core.OutcomeCommitted {
		t.Fatalf("outcome at C = %v, %v (the bug must not block the happy path)", o, ok)
	}
	vs := Check(Run{Variant: core.VariantPaxos, Events: eng.Trace().Events()})
	wantRule(t, vs, "AC3")
	t.Logf("oracle convicted the unforced acceptance (seed=%d): %v", seed, vs)
}

// TestInjectedOnePhaseLazyDecisionSim plants the one-phase variant's
// deliberate bug in the simulator: the coordinator writes its combined
// decision record lazily (core.TestHooks.OnePhaseLazyDecision) instead
// of forcing it. In 1PC that single force is the transaction's entire
// durability — the voters logged nothing — so skipping it must convict
// under AC3 even though the commit itself sails through.
func TestInjectedOnePhaseLazyDecisionSim(t *testing.T) {
	const seed = int64(424246)
	eng := core.NewEngine(core.Config{
		Variant: core.Variant1PC,
		Hooks:   core.TestHooks{OnePhaseLazyDecision: true},
	})
	nodes := []string{"C", "S1", "S2"}
	for _, name := range nodes {
		eng.AddNode(core.NodeID(name)).AttachResource(core.NewStaticResource(name + "-res"))
	}
	tx := eng.Begin("C")
	for _, sub := range nodes[1:] {
		if err := tx.Send("C", core.NodeID(sub), "work"); err != nil {
			t.Fatal(err)
		}
	}
	tx.CommitAsync("C")
	eng.Drain()
	eng.FlushSessions()
	eng.Drain()

	if o, ok := eng.OutcomeAt("C", tx.ID()); !ok || o != core.OutcomeCommitted {
		t.Fatalf("outcome at C = %v, %v (the bug must not block the happy path)", o, ok)
	}
	vs := Check(Run{Variant: core.Variant1PC, Events: eng.Trace().Events()})
	wantRule(t, vs, "AC3")
	t.Logf("oracle convicted the lazy 1PC decision (seed=%d): %v", seed, vs)
}

// TestInjectedOnePhaseLazyDecisionLive does the same through the live
// runtime: the coordinator decides on real unforced votes and then
// buffers — rather than forces — the one record that carries every
// voter's durability. Must convict under AC3 well inside a minute.
func TestInjectedOnePhaseLazyDecisionLive(t *testing.T) {
	start := time.Now()
	const seed = int64(424247)
	trc := trace.New()
	net := netsim.NewChanNetwork()
	mk := func(name string, hooks core.TestHooks) *live.Participant {
		p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]core.Resource{core.NewStaticResource(name + "-res")},
			live.WithVariant(core.Variant1PC),
			live.WithTrace(trc),
			live.WithTimeout(liveTimeout, liveTimeout),
			live.WithRetry(liveRetry()),
			live.WithRetrySeed(seed),
			live.WithHooks(hooks),
		)
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	c := mk("C", core.TestHooks{OnePhaseLazyDecision: true})
	s1 := mk("S1", core.TestHooks{})
	s2 := mk("S2", core.TestHooks{})

	ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
	defer cancel()
	if out, err := c.Commit(ctx, "C:1", []string{"S1", "S2"}); err != nil || out != live.Committed {
		t.Fatalf("commit = %v, %v (the bug must not block the happy path)", out, err)
	}
	time.Sleep(30 * time.Millisecond)

	final := map[string]Final{
		"C":  {Outcomes: c.Decided()},
		"S1": {Outcomes: s1.Decided()},
		"S2": {Outcomes: s2.Decided()},
	}
	vs := Check(Run{Variant: core.Variant1PC, Events: trc.Events(), Final: final})
	wantRule(t, vs, "AC3")
	if el := time.Since(start); el > time.Minute {
		t.Errorf("conviction took %v; the acceptance bar is under a minute", el)
	}
	t.Logf("oracle convicted the lazy 1PC decision in %v (seed=%d): %v", time.Since(start), seed, vs)
}

// TestInjectedQuorumBugLive plants the second bug — the coordinator
// counts an acceptor "quorum" of one (core.TestHooks.QuorumOverride)
// — and arranges the schedule that makes it lethal: the coordinator's
// own-instance accepts never reach the other acceptors, it commits on
// its own acceptance alone, and dies before any outcome escapes. The
// survivors' (correct) recovery reads the real quorum, finds the
// coordinator's instance nowhere, and aborts. The oracle must convict
// the split outcome (AC1) and the unjustified decision (AC2).
func TestInjectedQuorumBugLive(t *testing.T) {
	start := time.Now()
	const seed = int64(424245)
	subs := []string{"S1", "S2", "S3"}
	hooks := map[string]core.TestHooks{"C": {QuorumOverride: 1}}
	// The coordinator's ballot-0 accepts and its Commit broadcast are
	// swallowed by the network; everything else (the subordinates'
	// accepts, the recovery round) flows.
	drop := func(from, to string, m protocol.Message) (protocol.Message, bool) {
		if from == "C" && (m.Type == protocol.MsgPaxosAccept || m.Type == protocol.MsgCommit) {
			return m, false
		}
		return m, true
	}
	var crashed atomic.Bool
	coordFail := func(pt string) bool {
		if pt == "after-send:Commit" {
			crashed.Store(true)
			return true
		}
		return false
	}
	parts, trc := paxosInjectFleet(t, seed, subs, hooks, drop, coordFail)

	ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
	defer cancel()
	parts["C"].Commit(ctx, "C:1", subs)
	if !crashed.Load() {
		t.Fatal("injection never fired: the coordinator never decided on its fake quorum")
	}

	// The survivors recover from the real acceptor quorum {S1, S2}.
	rctx, rcancel := context.WithTimeout(context.Background(), liveRecovery)
	defer rcancel()
	for _, name := range subs {
		p := parts[name]
		deadline := time.Now().Add(liveRecovery)
		for {
			if ids, err := p.InDoubtTxs(); err == nil && len(ids) == 0 {
				break
			}
			if _, err := p.RecoverInDoubt(rctx, "C"); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s could not resolve its doubt", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	final := make(map[string]Final)
	for name, p := range parts {
		final[name] = Final{Crashed: p.Crashed(), Outcomes: p.Decided()}
	}
	vs := Check(Run{Variant: core.VariantPaxos, Events: trc.Events(), Final: final})
	wantRule(t, vs, "AC1")
	wantRule(t, vs, "AC2")
	if el := time.Since(start); el > time.Minute {
		t.Errorf("conviction took %v; the acceptance bar is under a minute", el)
	}
	t.Logf("oracle convicted the miscounted quorum in %v (seed=%d): %v", time.Since(start), seed, vs)
}

// TestInjectedQuorumBugSim plants the miscounted quorum
// (core.TestHooks.QuorumOverride) in the simulator under the live
// test's schedule: the coordinator's ballot-0 accepts and Commit are
// swallowed, it commits on its own acceptance alone and crashes right
// after, and the survivors' recovery finds its instance nowhere and
// aborts. The oracle must convict the split (AC1) and the unjustified
// commit (AC2).
func TestInjectedQuorumBugSim(t *testing.T) {
	const seed = int64(424245)
	subs := []string{"S1", "S2", "S3"}
	eng := paxosInjectSim(core.TestHooks{QuorumOverride: 1}, subs)
	crashed := false
	eng.SetMessageFilter(func(from, to core.NodeID, m protocol.Message) (protocol.Message, bool) {
		if from != "C" || (m.Type != protocol.MsgPaxosAccept && m.Type != protocol.MsgCommit) {
			return m, true
		}
		if m.Type == protocol.MsgCommit && !crashed {
			crashed = true
			eng.Schedule("C", 0, func() { eng.Crash("C") })
		}
		return m, false
	})
	tx := paxosCommitSim(t, eng, subs)

	if !crashed {
		t.Fatal("injection never fired: the coordinator never decided on its fake quorum")
	}
	for _, name := range subs {
		if o, ok := eng.OutcomeAt(core.NodeID(name), tx.ID()); !ok || o != core.OutcomeAborted {
			t.Fatalf("outcome at %s = %v, %v; want the survivors' abort", name, o, ok)
		}
	}
	vs := Check(Run{Variant: core.VariantPaxos, Events: eng.Trace().Events()})
	wantRule(t, vs, "AC1")
	wantRule(t, vs, "AC2")
	t.Logf("oracle convicted the miscounted quorum (seed=%d): %v", seed, vs)
}
