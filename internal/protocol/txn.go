package protocol

import (
	"errors"
	"strconv"
)

// This file is the contract between a transaction manager and its
// resource managers, shared by the simulator (internal/core) and the
// live runtime (internal/live): transaction and node names, the
// resource interface with its vote and attributes, and heuristic
// completion.

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

// PrepareResult carries a local resource manager's vote and the
// attributes the optimizations key off.
type PrepareResult struct {
	Vote     VoteValue
	Reliable bool // heuristic decisions vanishingly unlikely (§4 Vote Reliable)
	// OKToLeaveOut: the resource will stay suspended until its
	// services are requested again, so it may be omitted from the
	// next transaction (§4 Leaving Inactive Partners Out).
	OKToLeaveOut bool
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
