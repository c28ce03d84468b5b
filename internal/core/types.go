// Package core implements the paper's contribution: the two-phase
// commit engine with its three protocol variants — Baseline 2PC,
// Presumed Abort (PA) and Presumed Nothing (PN) — and the nine
// normal-case optimizations of §4 (read-only, leave-out, last agent,
// unsolicited vote, shared log, group commit, long locks, vote
// reliable, wait for outcome), plus heuristic decisions and the
// recovery processing each variant requires.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// ErrHeuristicConflict is returned by a resource's Commit or Abort
// when a heuristic decision was already taken for the transaction;
// the caller must consult HeuristicTaken to detect damage. Resource
// implementations (e.g. kvstore) wrap or alias this sentinel.
var ErrHeuristicConflict = errors.New("resource already completed heuristically")

// NodeID names a node (one transaction manager plus its local
// resource managers and log).
type NodeID string

// TxID identifies a distributed transaction: the node that started
// the work and a sequence number at that node.
type TxID struct {
	Origin NodeID
	Seq    uint64
}

// String renders the id as "origin:seq". It runs for every staged
// transaction (lock owners and log records are keyed by it), so it
// builds the text in a stack buffer and allocates only the result.
func (t TxID) String() string {
	var buf [64]byte
	b := append(buf[:0], t.Origin...)
	b = append(b, ':')
	return string(strconv.AppendUint(b, t.Seq, 10))
}

// ParseTxID is the inverse of String for well-formed "origin:seq"
// ids. Names that don't parse — the v1 API lets a client pick any
// string — map to a distinct id with the whole name as origin and a
// hash as sequence: resources key staged writes and lock ownership by
// TxID, so a shared fallback id would fuse unrelated transactions
// into one. Only the empty name maps to the zero id. It is on the
// commit hot path (every handler maps a wire transaction name back to
// its id), so it parses without reflection or allocation.
func ParseTxID(s string) TxID {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			if seq, err := strconv.ParseUint(s[i+1:], 10, 64); err == nil {
				return TxID{Origin: NodeID(s[:i]), Seq: seq}
			}
			break
		}
	}
	if s == "" {
		return TxID{}
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return TxID{Origin: NodeID(s), Seq: h}
}

// Vote is a participant's reply to Prepare.
type Vote int

// Votes. ReadOnly means commit and abort are indistinguishable for
// the voter, which drops out of phase two (§4 Read Only).
const (
	VoteYes Vote = iota
	VoteNo
	VoteReadOnly
)

// String returns the vote's protocol name.
func (v Vote) String() string {
	switch v {
	case VoteYes:
		return "VoteYes"
	case VoteNo:
		return "VoteNo"
	case VoteReadOnly:
		return "VoteReadOnly"
	default:
		return fmt.Sprintf("Vote(%d)", int(v))
	}
}

// PrepareResult carries a local resource manager's vote and the
// attributes the optimizations key off.
type PrepareResult struct {
	Vote     Vote
	Reliable bool // heuristic decisions vanishingly unlikely (§4 Vote Reliable)
	// OKToLeaveOut: the resource will stay suspended until its
	// services are requested again, so it may be omitted from the
	// next transaction (§4 Leaving Inactive Partners Out).
	OKToLeaveOut bool
}

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

// Resource is a local resource manager (LRM) enlisted in a
// transaction at one node: a database, file manager, or queue. The
// engine drives it through the standard participant contract.
// Implementations must tolerate Commit/Abort for transactions they
// never saw (recovery may re-deliver outcomes).
type Resource interface {
	// Name identifies the resource in traces and metrics.
	Name() string
	// Prepare asks the resource to guarantee it can go either way.
	Prepare(tx TxID) (PrepareResult, error)
	// Commit applies the transaction's effects and releases locks.
	Commit(tx TxID) error
	// Abort discards the transaction's effects and releases locks.
	Abort(tx TxID) error
}

// HeuristicCapable is implemented by resources that support
// unilateral heuristic completion while in doubt.
type HeuristicCapable interface {
	// HeuristicDecide commits (true) or aborts (false) a prepared
	// transaction unilaterally. The resource remembers the decision
	// so later outcome delivery can detect damage.
	HeuristicDecide(tx TxID, commit bool) error
	// HeuristicTaken reports whether a heuristic decision was taken
	// for tx and what it was.
	HeuristicTaken(tx TxID) (taken, committed bool)
}

// HeuristicReport travels upstream in acknowledgments: it describes
// heuristic activity in a subtree.
type HeuristicReport struct {
	Node      NodeID
	Committed bool // the unilateral choice that was made
	Damage    bool // the choice disagreed with the final outcome
}

// AckStatus is carried on commit/abort acknowledgments.
type AckStatus struct {
	Heuristics []HeuristicReport
	// RecoveryPending is set under Wait-For-Outcome when a subtree
	// could not be reached and recovery continues in the background.
	RecoveryPending bool
}

// Merge folds other into s.
func (s *AckStatus) Merge(other AckStatus) {
	s.Heuristics = append(s.Heuristics, other.Heuristics...)
	s.RecoveryPending = s.RecoveryPending || other.RecoveryPending
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
