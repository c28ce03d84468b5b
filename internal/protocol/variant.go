package protocol

import (
	"fmt"
	"strings"
)

// Variant is a commit protocol variant. Its value is also the byte a
// Prepare carries on the wire (Message.Presume): the coordinator
// announces its variant per transaction, so one live participant can
// serve transactions under different variants concurrently — each
// subordinate learns from the Prepare what "no information" will mean
// if it later inquires, and whether outcomes must be forced and
// acknowledged. The values are fixed: the wire byte and the live
// decided table's encoding carry them.
type Variant int

// The variants. What each forces and acknowledges is its row in the
// variant table, which the classic-round rules (classic.go) read; the
// round structure of Paxos Commit is its own module (paxoscommit.go).
const (
	// VariantBaseline is the classic 2PC of Figure 1: no presumption,
	// acks for both outcomes, no pending record — after a total
	// coordinator amnesia the subordinates stay blocked.
	VariantBaseline Variant = iota
	// VariantPA is Presumed Abort (R*, §3): no information at the
	// coordinator means abort; abort processing does no forced
	// logging and is not acknowledged.
	VariantPA
	// VariantPN is IBM's Presumed Nothing (LU 6.2, §3): the
	// coordinator forces a commit-pending record before the first
	// Prepare so it never forgets, always drives recovery and learns
	// of heuristic damage; aborts are forced and acknowledged.
	VariantPN
	// VariantPC is Presumed Commit, the dual of PA (from the R*
	// lineage the paper builds on; included here as the extension
	// variant the commercial world also standardized). The
	// coordinator forces a collecting record naming its subordinates
	// before any Prepare; missing information then means COMMIT, so
	// commits need neither subordinate commit-record forces nor
	// acknowledgments, while aborts are fully logged and acked.
	VariantPC
	// VariantPaxos is Gray & Lamport's Paxos Commit (Consensus on
	// Transaction Commit): each participant's vote is one Paxos
	// instance replicated across 2f+1 acceptors colocated on the
	// transaction's nodes, the coordinator is merely the initial
	// leader, and an in-doubt participant learns the outcome from an
	// acceptor quorum instead of inquiring at the coordinator —
	// non-blocking for up to f acceptor failures at the cost of one
	// extra message delay and the acceptor forces. No outcome is
	// acknowledged: the quorum is the durable record of it.
	VariantPaxos
	// Variant1PC is the logless one-phase fast path ("vote before
	// decide"): a leaf subordinate's yes vote carries its redo payload
	// and is NOT preceded by a forced prepare record — the vote's
	// durability is delegated to the coordinator's single forced
	// decision record, which names the participants and embeds their
	// redos. The coordinator decides in one round and collects commit
	// acknowledgments off the caller's critical path (they bound how
	// long it keeps the redo-bearing decision record). Absence of
	// information means abort, as under PA, which is what makes the
	// voter's amnesia safe: a restarted voter knows nothing, and
	// either the presumption aborts it or the coordinator's
	// retransmitted Commit (carrying the redo) completes it.
	Variant1PC
)

// row returns the variant's row. A value outside the table (a corrupt
// wire byte) gets the baseline's row, which presumes nothing.
func (v Variant) row() *variantRow {
	if v.valid() {
		return &variantTable[v]
	}
	return &variantTable[VariantBaseline]
}

func (v Variant) valid() bool { return v >= 0 && int(v) < len(variantTable) }

// String returns the paper's abbreviation for the variant.
func (v Variant) String() string {
	if v.valid() {
		return variantTable[v].name
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// PresumeName is the name a subordinate's Prepared record payload
// carries for the variant (VariantByPresumeName reads it back).
func (v Variant) PresumeName() string { return v.row().presumeName }

// VariantByPresumeName maps a Prepared record's payload name
// (Variant.PresumeName) back to its variant; ok is false for a name
// no row carries.
func VariantByPresumeName(name string) (Variant, bool) {
	for v, r := range variantTable {
		if name == r.presumeName {
			return Variant(v), true
		}
	}
	return VariantBaseline, false
}

// ParseVariant maps a variant name to its value, case-insensitively:
// the table's names (Variant.String) and their aliases ("pa", "2pc",
// "paxos", "onephase", ...).
func ParseVariant(name string) (Variant, bool) {
	for v, r := range variantTable {
		if strings.EqualFold(name, r.name) {
			return Variant(v), true
		}
		for _, a := range r.aliases {
			if strings.EqualFold(name, a) {
				return Variant(v), true
			}
		}
	}
	return VariantBaseline, false
}
