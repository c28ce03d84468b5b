// Package core implements the paper's contribution: the two-phase
// commit engine with its three protocol variants — Baseline 2PC,
// Presumed Abort (PA) and Presumed Nothing (PN) — and the nine
// normal-case optimizations of §4 (read-only, leave-out, last agent,
// unsolicited vote, shared log, group commit, long locks, vote
// reliable, wait for outcome), plus heuristic decisions and the
// recovery processing each variant requires.
package core

import (
	"time"

	"repro/internal/protocol"
)

// Outcome is the global fate of a transaction as seen by one
// participant or by the root.
type Outcome int

// Outcomes. HeuristicMixed means parts committed and parts aborted
// (heuristic damage). OutcomePending is reported to the application
// under Wait-For-Outcome when recovery is still in progress.
const (
	OutcomeUnknown Outcome = iota
	OutcomeCommitted
	OutcomeAborted
	OutcomeHeuristicMixed
	OutcomePending
)

// String returns a lowercase outcome name (the metrics registry keys
// on it).
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeHeuristicMixed:
		return "heuristic-mixed"
	case OutcomePending:
		return "pending"
	default:
		return "unknown"
	}
}

// AckStatus is carried on commit/abort acknowledgments.
type AckStatus struct {
	Heuristics []protocol.HeuristicReport
	// RecoveryPending is set under Wait-For-Outcome when a subtree
	// could not be reached and recovery continues in the background.
	RecoveryPending bool
}

// Damaged reports whether any heuristic in the subtree disagreed with
// the outcome.
func (s AckStatus) Damaged() bool {
	for _, h := range s.Heuristics {
		if h.Damage {
			return true
		}
	}
	return false
}

// Result is what the commit initiator's application receives.
type Result struct {
	Outcome Outcome
	Status  AckStatus
	// Latency is the virtual (or wall) time from commit initiation to
	// the application regaining control.
	Latency time.Duration
	Err     error
}
