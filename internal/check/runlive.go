package check

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Live-engine tuning: small enough that a chaos run (commit attempt,
// restart, recovery) finishes in tens of milliseconds on a healthy
// machine, large enough that retransmissions fit inside the windows.
const (
	liveTimeout  = 150 * time.Millisecond
	liveRecovery = 2 * time.Second
)

func liveRetry() clock.RetryPolicy {
	return clock.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.1,
	}
}

// failCounter counts a participant's instrumented protocol steps and
// crashes it at the target'th one (target <= 0 never crashes, but
// still counts — the crash-point sweep probes clean runs this way).
type failCounter struct {
	n      int64
	target int64
}

func (f *failCounter) hook() func(string) bool {
	return func(string) bool {
		n := atomic.AddInt64(&f.n, 1)
		return f.target > 0 && n == f.target
	}
}

func (f *failCounter) count() int { return int(atomic.LoadInt64(&f.n)) }

// RunLive executes a schedule on the concurrent runtime
// (internal/live) over an in-process channel network. The schedule's
// parameters (crash points, loss pattern seed) are deterministic;
// the goroutine interleaving is whatever the host scheduler produces,
// which is exactly the point — the oracle checks that every
// interleaving under this failure pattern is safe.
func RunLive(s Schedule) (*RunResult, error) {
	trc := trace.New()

	// Loss is a bounded, seeded transform: recovery traffic is spared
	// (the inquiry deadline is finite), and the window closes with
	// lossOn before recovery is driven.
	var (
		lossMu  sync.Mutex
		lossRng = rand.New(rand.NewSource(s.Seed ^ 0x6c6f7373))
		dropped = 0
		lossOn  atomic.Bool
	)
	lossOn.Store(true)
	transform := func(from, to string, m protocol.Message) (protocol.Message, bool) {
		if !lossOn.Load() {
			return m, true
		}
		if s.lostAgentAnswer(from, to, m) {
			return m, false
		}
		if s.LossPermil == 0 || spared(m.Type) {
			return m, true
		}
		lossMu.Lock()
		defer lossMu.Unlock()
		if dropped >= s.LossWindow {
			return m, true
		}
		if lossRng.Intn(1000) < s.LossPermil {
			dropped++
			return m, false
		}
		return m, true
	}
	// Every packet crosses the real wire codec, so each schedule also
	// exercises byte-level marshaling under its failure pattern.
	net := netsim.NewChanNetwork(netsim.WithTransform(transform), netsim.WithChanCodec())

	parts := make(map[string]*live.Participant)
	counters := make(map[string]*failCounter)
	var subs []string
	for i, name := range s.Nodes() {
		fc := &failCounter{}
		if name == "C" && s.CrashCoord {
			fc.target = int64(s.CrashCoordAt)
		}
		if s.CrashSub && name == SubName(s.CrashSubIdx) {
			fc.target = int64(s.CrashSubAt)
		}
		counters[name] = fc
		opts := []live.Option{
			live.WithVariant(s.Variant),
			live.WithTrace(trc),
			live.WithTimeout(liveTimeout, liveTimeout),
			live.WithRetry(liveRetry()),
			live.WithRetrySeed(s.Seed + int64(i)),
			live.WithFailpoint(fc.hook()),
		}
		if s.LastAgent {
			opts = append(opts, live.WithLastAgent())
		}
		p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]protocol.Resource{protocol.NewStaticResource(name + "-res")}, opts...)
		p.Start()
		parts[name] = p
		if name != "C" {
			subs = append(subs, name)
		}
	}

	if s.PartitionSub >= 0 {
		sub := SubName(s.PartitionSub)
		net.Partition("C", sub)
		healT := time.AfterFunc(time.Duration(s.PartitionMS)*time.Millisecond, func() {
			net.Heal("C", sub)
		})
		defer healT.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
	parts["C"].Commit(ctx, "C:1", subs)
	cancel()

	// Every node still up checkpoints its protocol log, so schedules
	// (and the crash-point sweep) also kill nodes inside a checkpoint:
	// before its commit point and between the commit and the recycling.
	for _, name := range s.Nodes() {
		if p := parts[name]; !p.Crashed() {
			_, _, _ = p.Checkpoint()
		}
	}

	// The failure window is over: stop losing messages and heal every
	// partition.
	lossOn.Store(false)
	if s.PartitionSub >= 0 {
		net.Heal("C", SubName(s.PartitionSub))
	}

	// Drive recovery for every subordinate in doubt. Commit returns
	// the instant the coordinator crashes, so a subordinate may still
	// be processing an in-flight Prepare — settle first, and scan
	// twice so a straggler that prepared into doubt during the first
	// pass is still recovered. Each pass first brings crashed nodes
	// back in the schedule's order: a node's crash point may fall after
	// the first pass's restarts (a last agent the restarted coordinator
	// asks again, say), and a restarted node has no failpoint left.
	rctx, rcancel := context.WithTimeout(context.Background(), liveRecovery)
	defer rcancel()
	for pass := 0; pass < 2; pass++ {
		for _, name := range s.restartOrder() {
			old := parts[name]
			if !old.Crashed() {
				continue
			}
			// A failpoint crash may still be running on another
			// goroutine: Crashed reports it before its endpoint closes,
			// and net.Endpoint would hand the restart that endpoint,
			// which then closes under it. Crash returns once the first
			// call has finished.
			old.Crash()
			np := old.Restarted(net.Endpoint(name))
			np.Start()
			parts[name] = np
		}
		time.Sleep(20 * time.Millisecond)
		for _, name := range subs {
			p := parts[name]
			ids, err := p.InDoubtTxs()
			if err != nil || len(ids) == 0 {
				continue
			}
			dec := p.Decided()
			for _, id := range ids {
				if _, known := dec[id]; !known {
					_, _ = p.RecoverInDoubt(rctx, "C")
					break
				}
			}
		}
	}

	// Let trailing acknowledgments and duplicate-outcome traffic land
	// before freezing the final state.
	time.Sleep(20 * time.Millisecond)

	// A node's decided table forgets aged entries, so the outcomes it
	// traced in its current incarnation count as known too: a
	// transaction decided here and then forgotten is not in doubt.
	traced := tracedOutcomes(trc.Events())
	final := make(map[string]Final)
	for _, name := range s.Nodes() {
		p := parts[name]
		f := Final{Crashed: p.Crashed(), Outcomes: p.Decided(), InDoubt: make(map[string]bool)}
		for tx, committed := range traced[name] {
			if _, known := f.Outcomes[tx]; !known {
				f.Outcomes[tx] = committed
			}
		}
		if ids, err := p.InDoubtTxs(); err == nil {
			for _, id := range ids {
				// The durable log can hold "prepared, no outcome" for a
				// transaction the node knows decided: the presumption
				// variants' lazy outcome records stay buffered until the
				// next force. In doubt means the node itself does not
				// know the outcome.
				if _, known := f.Outcomes[id]; !known {
					f.InDoubt[id] = true
				}
			}
		}
		final[name] = f
	}
	for _, p := range parts {
		p.Stop()
	}

	res := &RunResult{
		Schedule:    s,
		Run:         Run{Variant: s.Variant, Events: trc.Events(), Final: final},
		Tracer:      trc,
		CoordPoints: counters["C"].count(),
	}
	for i := 0; i < s.Subs; i++ {
		res.SubPoints = append(res.SubPoints, counters[SubName(i)].count())
	}
	return res, nil
}

// tracedOutcomes folds each node's traced decisions since its last
// restart into transaction id -> committed. Decisions a node made
// before it crashed are left out: only what its current incarnation
// decided (or replayed from its log) is known to it.
func tracedOutcomes(events []trace.Event) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, e := range events {
		switch {
		case e.Kind == trace.KindError && e.Detail == "restart":
			delete(out, e.Node)
		case e.Kind == trace.KindDecision:
			m := out[e.Node]
			if m == nil {
				m = make(map[string]bool)
				out[e.Node] = m
			}
			m[e.Tx] = strings.HasPrefix(e.Detail, "commit")
		}
	}
	return out
}
