package check

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// RunResult is one executed schedule, ready for the oracle: the run
// (events plus final state) and the tracer for rendering a failing
// interleaving.
type RunResult struct {
	Schedule Schedule
	Run      Run
	Tracer   *trace.Tracer

	// Live-engine instrumentation: how many failpoints each node hit.
	// The crash-point sweep probes a clean run first to learn these
	// counts, then crashes at every one of them in turn.
	CoordPoints int
	SubPoints   []int
}

// Mermaid renders the run's interleaving as a mermaid sequence
// diagram, coordinator column first.
func (r *RunResult) Mermaid() string {
	return r.Tracer.Mermaid(r.Schedule.Nodes()...)
}

// spared lists the message types the loss schedules never drop:
// recovery traffic, whose retry budgets are finite and must not be
// starved by the schedule itself. Paxos Commit's quorum reads are
// recovery traffic in exactly that sense.
func spared(t protocol.MsgType) bool {
	switch t {
	case protocol.MsgInquire, protocol.MsgOutcome,
		protocol.MsgPaxosQuery, protocol.MsgPaxosPromise:
		return true
	}
	return false
}

// lostAgentAnswer reports whether a LoseAgentAnswer schedule drops m:
// an outcome the last agent sends its coordinator.
func (s Schedule) lostAgentAnswer(from, to string, m protocol.Message) bool {
	return s.LoseAgentAnswer && from == s.agent() && to == "C" &&
		(m.Type == protocol.MsgCommit || m.Type == protocol.MsgAbort)
}

// simStep is the virtual-time granularity of simulator crash points:
// with the default 1ms network delay and 0.5ms force delay, offsets of
// 1..12 steps land crashes everywhere from before the first Prepare to
// after the last acknowledgment.
const simStep = 800 * time.Microsecond

// RunSim executes a schedule on the deterministic simulator
// (internal/core): same seed, same interleaving, bit for bit.
func RunSim(s Schedule) (*RunResult, error) {
	eng := core.NewEngine(core.Config{Variant: s.Variant, Options: core.Options{LastAgent: s.LastAgent}})
	for _, name := range s.Nodes() {
		n := eng.AddNode(protocol.NodeID(name))
		n.AttachResource(protocol.NewStaticResource(name + "-res"))
	}

	if s.LossPermil > 0 || s.LoseAgentAnswer {
		// Bounded loss; recovery traffic is spared so the inquiry retry
		// cap cannot be exhausted by the schedule itself.
		rng := rand.New(rand.NewSource(s.Seed ^ 0x6c6f7373))
		dropped, answerLost := 0, false
		eng.SetMessageFilter(func(from, to protocol.NodeID, m protocol.Message) (protocol.Message, bool) {
			if !answerLost && s.lostAgentAnswer(string(from), string(to), m) {
				// The simulator has no end to the failure window, so only
				// the agent's first answer is lost.
				answerLost = true
				return m, false
			}
			if spared(m.Type) || s.LossPermil == 0 {
				return m, true
			}
			if dropped >= s.LossWindow {
				return m, true
			}
			if rng.Intn(1000) < s.LossPermil {
				dropped++
				return m, false
			}
			return m, true
		})
	}

	// Build the commit tree: the root touches every subordinate.
	tx := eng.Begin("C")
	for i := 0; i < s.Subs; i++ {
		if err := tx.Send("C", protocol.NodeID(SubName(i)), "work"); err != nil {
			return nil, err
		}
	}

	if s.PartitionSub >= 0 {
		sub := protocol.NodeID(SubName(s.PartitionSub))
		eng.Partition("C", sub)
		eng.Schedule("C", time.Duration(s.PartitionMS)*time.Millisecond, func() {
			eng.Heal("C", sub)
		})
	}
	if s.CrashCoord {
		eng.CrashAt("C", time.Duration(s.CrashCoordAt)*simStep)
	}
	if s.CrashSub {
		eng.CrashAt(protocol.NodeID(SubName(s.CrashSubIdx)), time.Duration(s.CrashSubAt)*simStep)
	}
	// Restarts are scheduled upfront, well after every crash point, in
	// the schedule's order; restart() replays the log and drives the
	// variant's recovery (outcome resends, inquiries).
	delay := 30 * time.Millisecond
	for _, name := range s.restartOrder() {
		eng.Restart(protocol.NodeID(name), delay)
		delay += 5 * time.Millisecond
	}

	tx.CommitAsync("C")
	eng.Drain()
	eng.FlushSessions()
	eng.Drain()

	txID := tx.ID()
	final := make(map[string]Final)
	for _, name := range s.Nodes() {
		id := protocol.NodeID(name)
		f := Final{Outcomes: make(map[string]bool), InDoubt: make(map[string]bool)}
		f.Crashed = name == "C" && s.CoordStaysDown
		if o, ok := eng.OutcomeAt(id, txID); ok {
			switch o {
			case core.OutcomeCommitted:
				f.Outcomes[txID.String()] = true
			case core.OutcomeAborted:
				f.Outcomes[txID.String()] = false
			}
		}
		if eng.InDoubtAt(id, txID) {
			f.InDoubt[txID.String()] = true
		}
		final[name] = f
	}
	return &RunResult{
		Schedule: s,
		Run:      Run{Variant: s.Variant, Events: eng.Trace().Events(), Final: final},
		Tracer:   eng.Trace(),
	}, nil
}

// restartOrder lists the crashed nodes in the order the schedule
// restarts them. A CoordStaysDown coordinator is left out: staying
// dead is the whole point of that schedule.
func (s Schedule) restartOrder() []string {
	var coord, sub []string
	if s.CrashCoord && !s.CoordStaysDown {
		coord = append(coord, "C")
	}
	if s.CrashSub {
		sub = append(sub, SubName(s.CrashSubIdx))
	}
	if s.RestartCoordFirst {
		return append(coord, sub...)
	}
	return append(sub, coord...)
}
