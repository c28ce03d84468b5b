package core

import (
	"time"

	"repro/internal/protocol"
)

// Variant selects the base commit protocol. It is protocol.Variant:
// each variant's presumption, forces and acks are its row in the
// variant table there, which this engine and the live runtime both
// read.
type Variant = protocol.Variant

// The protocols of §2-3 and their extensions; see protocol.Variant.
const (
	VariantBaseline = protocol.VariantBaseline
	VariantPA       = protocol.VariantPA
	VariantPN       = protocol.VariantPN
	VariantPC       = protocol.VariantPC
	VariantPaxos    = protocol.VariantPaxos
	Variant1PC      = protocol.Variant1PC
)

// Options toggles the §4 optimizations. All default to off, which
// yields the textbook protocol the tables use as the baseline. The
// options compose; conflicts the paper calls out (e.g. Last Agent
// serializing the slow link) are modeled, not forbidden.
type Options struct {
	// ReadOnly permits read-only votes: a participant with no updates
	// drops out of phase two with no logging (§4 Read Only). PA and
	// PN both incorporate it; the basic 2PC rows of the tables run
	// with it off, forcing idle participants through the full
	// protocol.
	ReadOnly bool
	// LeaveOut honors OK_TO_LEAVE_OUT votes: a suspended server
	// subtree that receives no data in the next transaction is
	// omitted from its commit entirely (§4 Leaving Inactive Partners
	// Out).
	LeaveOut bool
	// LastAgent delegates the commit decision to the one remaining
	// unprepared subordinate, collapsing its message exchange to a
	// single round trip (§4 Last Agent).
	LastAgent bool
	// UnsolicitedVote lets a server prepare on its own initiative and
	// vote before any Prepare arrives (§4 Unsolicited Vote). The
	// trigger is the Tx.UnsolicitedVote script call; this option
	// makes the coordinator accept such votes.
	UnsolicitedVote bool
	// VoteReliable enables the reliable-resource handling of §4 Vote
	// Reliable: subordinates whose whole subtree voted reliable skip
	// the explicit commit acknowledgment (an implied ack suffices)
	// and intermediates may acknowledge early without losing
	// late-acknowledgment semantics.
	VoteReliable bool
	// LongLocks buffers the subordinate's commit ack and piggybacks
	// it on the first data of the next transaction (§4 Long Locks).
	LongLocks bool
	// EarlyAck switches intermediates from late to early
	// acknowledgment (§4 Commit Acknowledgment): the intermediate
	// acks as soon as it has logged the outcome, before its own
	// subordinates have acknowledged. Faster, but heuristic damage
	// below the intermediate arrives after the root believes the
	// transaction complete.
	EarlyAck bool
	// WaitForOutcome bounds blocking during ack collection (§4 Wait
	// For Outcome): after one failed re-contact attempt the
	// application gets control back with an outcome-pending
	// indication while recovery continues in the background.
	WaitForOutcome bool
}

// HeuristicPolicy describes when a blocked, in-doubt participant
// gives up waiting and completes unilaterally. The zero value means
// "never" — the participant blocks until the outcome arrives.
type HeuristicPolicy struct {
	// After is how long a participant stays in doubt before acting;
	// zero disables heuristics.
	After time.Duration
	// Commit selects heuristic commit (true) or heuristic abort.
	Commit bool
}

// Enabled reports whether the policy ever fires.
func (p HeuristicPolicy) Enabled() bool { return p.After > 0 }

// TestHooks are deliberate protocol-correctness bugs the chaos
// harness injects to prove the safety oracle convicts them. They
// exist only for tests; production configurations leave them zero.
type TestHooks struct {
	// SkipAcceptorForce makes Paxos acceptors acknowledge acceptance
	// without forcing the acceptance record first — the classic
	// lost-promise bug an oracle must catch (AC3).
	SkipAcceptorForce bool
	// QuorumOverride, when positive, replaces the correct f+1 acceptor
	// quorum with the given size (e.g. 1 of 3 miscounted as a
	// majority), letting two recovery leaders learn different
	// outcomes (AC1/AC4Strict).
	QuorumOverride int
	// OnePhaseLazyDecision makes a 1PC coordinator write its decision
	// record lazily instead of forced before announcing the commit.
	// Under 1PC that record is the ONLY stable state in the whole
	// tree, so skipping the force silently voids every voter's
	// delegated durability — the bug AC3 must convict.
	OnePhaseLazyDecision bool
}

// Config parameterizes an Engine.
type Config struct {
	Variant Variant
	Options Options

	// Hooks injects protocol bugs for oracle-conviction tests; see
	// TestHooks. Zero in any real configuration.
	Hooks TestHooks

	// NetDelay is the one-way latency applied to every link that has
	// no per-link override. Default 1ms.
	NetDelay time.Duration
	// ForceDelay is the virtual cost of a forced log write. Default
	// 500µs. Non-forced writes are free, as in the paper's model.
	ForceDelay time.Duration
	// AckTimeout is how long a coordinator in phase two waits for an
	// acknowledgment before re-contacting the subordinate. Default
	// 50ms (virtual).
	AckTimeout time.Duration
	// VoteTimeout is how long a coordinator waits in phase one before
	// presuming a subordinate failed and aborting. Default 50ms.
	VoteTimeout time.Duration
	// InquireRetry is the delay between recovery inquiries from an
	// in-doubt participant. Default 25ms.
	InquireRetry time.Duration
	// MaxRecoveryAttempts bounds phase-two re-contact attempts when
	// WaitForOutcome is off; 0 means unbounded (block until healed).
	MaxRecoveryAttempts int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.NetDelay == 0 {
		c.NetDelay = time.Millisecond
	}
	if c.ForceDelay == 0 {
		c.ForceDelay = 500 * time.Microsecond
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 50 * time.Millisecond
	}
	if c.VoteTimeout == 0 {
		c.VoteTimeout = 50 * time.Millisecond
	}
	if c.InquireRetry == 0 {
		c.InquireRetry = 25 * time.Millisecond
	}
	return c
}
