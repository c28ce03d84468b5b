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
// variant table (see VariantRow); the round structure of Paxos Commit
// lives in its own driver.
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

// VariantRow is one variant's row of the variant table: the facts of
// the paper's Tables 2-3 — per role, which records are forced and
// which outcomes are acknowledged — as data both engines read.
type VariantRow struct {
	// Name is the paper's abbreviation: what /varz, the cost ledger
	// and the conformance audit call the variant.
	Name string
	// PresumeName names the variant in a subordinate's Prepared record
	// payload, so recovery restores the announced variant. Logs on
	// disk carry it: these strings never change.
	PresumeName string
	// PrePrepare is the record kind the coordinator forces before its
	// first Prepare, naming the subordinates ("" for none). PN's
	// Pending record lets it always drive recovery; PC's Collecting
	// record is what makes presuming commit safe.
	PrePrepare string
	// NoInfo answers an inquiry about a transaction the coordinator
	// has no information about: the presumption itself.
	NoInfo OutcomeKind
	// AckCommit and AckAbort say whether subordinates acknowledge each
	// outcome. On every row a subordinate forces its Aborted record
	// exactly when aborts are acknowledged, so AckAbort is that column
	// too.
	AckCommit, AckAbort bool
	// SubForcesCommitted says whether a subordinate forces its
	// Committed record.
	SubForcesCommitted bool
	// PropagateHeuristics says whether heuristic reports travel on the
	// acks all the way to the root rather than stopping at the
	// immediate coordinator and the operator.
	PropagateHeuristics bool
	// LoglessVote moves a leaf subordinate's durability into the
	// coordinator's decision record: the leaf forces no Prepared
	// record, its yes vote carries its redo payload, the coordinator's
	// forced Committed record embeds every voter's redo (OnePhaseMeta),
	// and the coordinator returns after that force, collecting the
	// commit acks in the background.
	LoglessVote bool

	aliases []string // further names ParseVariant accepts
}

var variantTable = [...]VariantRow{
	VariantBaseline: {Name: "Basic2PC", PresumeName: "PresumeNothing", NoInfo: OutcomeUnknown,
		AckCommit: true, AckAbort: true, SubForcesCommitted: true,
		aliases: []string{"basic", "baseline", "2pc"}},
	VariantPA: {Name: "PA", PresumeName: "PresumeAbort", NoInfo: OutcomeAbort,
		AckCommit: true, SubForcesCommitted: true},
	VariantPN: {Name: "PN", PresumeName: "PresumePending", PrePrepare: "Pending", NoInfo: OutcomeInProgress,
		AckCommit: true, AckAbort: true, SubForcesCommitted: true, PropagateHeuristics: true},
	VariantPC: {Name: "PC", PresumeName: "PresumeCommit", PrePrepare: "Collecting", NoInfo: OutcomeCommit,
		AckAbort: true},
	VariantPaxos: {Name: "PaxosCommit", PresumeName: "PresumePaxos", NoInfo: OutcomeUnknown,
		aliases: []string{"paxos"}},
	Variant1PC: {Name: "1PC", PresumeName: "Presume1PC", NoInfo: OutcomeAbort,
		AckCommit: true, LoglessVote: true, aliases: []string{"onephase"}},
}

// Row returns the variant's row. A value outside the table (a corrupt
// wire byte) gets the baseline's row, which presumes nothing.
func (v Variant) Row() VariantRow {
	if v.valid() {
		return variantTable[v]
	}
	return variantTable[VariantBaseline]
}

func (v Variant) valid() bool { return v >= 0 && int(v) < len(variantTable) }

// String returns the paper's abbreviation for the variant.
func (v Variant) String() string {
	if v.valid() {
		return variantTable[v].Name
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Acks reports whether subordinates acknowledge the given outcome.
func (r VariantRow) Acks(commit bool) bool {
	if commit {
		return r.AckCommit
	}
	return r.AckAbort
}

// AcksAny reports whether subordinates acknowledge either outcome:
// every variant but Paxos Commit, whose acceptor quorum makes receipts
// unnecessary.
func (r VariantRow) AcksAny() bool { return r.AckCommit || r.AckAbort }

// SubForces reports whether a subordinate forces its record of the
// given outcome.
func (r VariantRow) SubForces(commit bool) bool {
	if commit {
		return r.SubForcesCommitted
	}
	return r.AckAbort
}

// VariantByPresumeName maps a Prepared record's payload name
// (VariantRow.PresumeName) back to its variant; ok is false for a name
// no row carries.
func VariantByPresumeName(name string) (Variant, bool) {
	for v, r := range variantTable {
		if name == r.PresumeName {
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
		if strings.EqualFold(name, r.Name) {
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
