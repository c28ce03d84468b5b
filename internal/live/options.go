package live

import (
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Option configures a Participant at construction time. Options are
// the package's public configuration surface; the twopc façade
// re-exports them.
type Option func(*Participant)

// WithVariant selects the protocol variant this participant uses when
// coordinating (Baseline, PA, PN, or PC). Subordinate behavior is
// governed per transaction by the presumption announced on each
// Prepare, so participants with different variants interoperate. The
// default is Presumed Abort, the variant the paper notes became the
// industry standard.
func WithVariant(v protocol.Variant) Option {
	return func(p *Participant) { p.variant = v }
}

// WithTimeout overrides the total vote-collection and
// ack-collection deadlines (default 2s each). Retransmissions happen
// inside these windows per the clock.RetryPolicy.
func WithTimeout(vote, ack time.Duration) Option {
	return func(p *Participant) {
		p.voteTimeout = vote
		p.ackTimeout = ack
	}
}

// WithRetry installs the retransmission policy for vote collection,
// decision delivery, and in-doubt inquiry. Zero fields take the
// documented defaults.
func WithRetry(rp clock.RetryPolicy) Option {
	return func(p *Participant) { p.retry = rp }
}

// WithMetrics wires a metrics registry into the participant: message
// flows, log writes (via a WAL observer), retransmissions, in-doubt
// entries, outcomes, and commit latency. Several participants may
// share one registry; counters are keyed by participant name.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Participant) { p.met = reg }
}

// WithClock replaces the wall clock with another scheduler. Tests
// install a *clock.Virtual to drive timeouts and retry backoff
// deterministically without sleeping.
func WithClock(s clock.Scheduler) Option {
	return func(p *Participant) { p.sched = s }
}

// WithLastAgent enables the §4 Last Agent optimization when this
// participant coordinates: the final subordinate in the Commit call's
// list receives the delegation ("prepare, then you decide"),
// collapsing its exchange to a single round trip.
func WithLastAgent() Option {
	return func(p *Participant) { p.lastAgent = true }
}

// WithAdaptiveCommit installs the adaptive single-writer force
// pipeline on the participant's log: all forces funnel through one
// writer goroutine whose batching window widens toward maxWindow
// under load and collapses to zero when idle, so one fdatasync covers
// an entire burst without taxing idle-latency. This is the policy the
// daemon runs with fsync on. Without this option the log keeps its
// own policy (ImmediateSync unless the caller installed another).
func WithAdaptiveCommit(maxWindow time.Duration) Option {
	return func(p *Participant) {
		p.adaptive = true
		p.walMaxWindow = maxWindow
	}
}

// WithRetrySeed fixes the jitter seed (tests want reproducible
// backoff schedules; the default seed derives from the participant
// name).
func WithRetrySeed(seed int64) Option {
	return func(p *Participant) { p.retrySeed = seed }
}

// WithTrace wires a tracer into the participant: sends, receives, log
// writes, decisions, lock releases, and crash/restart markers — the
// event schema internal/check's safety oracle consumes. Participants
// of one run share a single tracer so the oracle sees a totally
// ordered interleaving.
func WithTrace(t *trace.Tracer) Option {
	return func(p *Participant) { p.trc = t }
}

// WithShards overrides the shard count of the per-transaction state
// table (rounded up to a power of two). The default derives from
// GOMAXPROCS. Tests use WithShards(1) to put every transaction in one
// shard; the table's behavior is identical at any count.
func WithShards(n int) Option {
	return func(p *Participant) { p.shardHint = n }
}

// WithHooks installs protocol-conformance test hooks (deliberate,
// convictable bugs): skipping the acceptor's force before it
// acknowledges, or overriding the acceptor quorum size. The chaos
// harness uses them to prove its oracle catches real protocol
// violations; production code never sets them.
func WithHooks(h protocol.TestHooks) Option {
	return func(p *Participant) { p.hooks = h }
}

// WithFailpoint installs a crash-injection hook. The hook is called at
// every instrumented protocol step with a point name — for example
// "before-force:Prepared", "after-send:Commit" — and the participant
// crashes (as if the process died) whenever the hook returns true.
// Chaos schedules count points to kill a participant at an exact step.
// A crash at "after-send:X" waits until X and every message the
// participant enqueued before it, to any peer, have been handed to the
// transport, so the crash loses none of them.
func WithFailpoint(fn func(point string) bool) Option {
	return func(p *Participant) { p.fp = fn }
}
