// Package audit cross-checks the live runtime's measured protocol
// costs against the closed forms of internal/analytic — a runtime
// re-derivation of the paper's Tables 2-4.
//
// The metrics cost ledger (metrics.Registry's Cost* methods) records,
// per transaction and per node, the flows, piggybacked flows, forced
// writes, and non-forced writes the runtime actually spent, tagged
// with the variant, the node's role, and the outcome. Conformance
// compares each finished node against its role's closed form:
//
//   - a committed transaction must match the commit form exactly —
//     every flow and every forced write accounted for, read-only
//     shapes and unsolicited votes included (analytic.CoordCommitCost);
//   - a read-only voter must match its form exactly (one vote, nothing
//     logged), though it never learns the outcome;
//   - an aborted transaction must stay at or under the variant's
//     abort ceiling (abort spend varies with when the abort struck);
//     a coordinator sends no Prepare to a volunteer and no Abort to
//     a read-only voter (analytic.CoordAbortCost). A finished node
//     that spent exactly its ceiling — the whole prepared-then-aborted
//     path, or for a coordinator whose every subordinate volunteered
//     its vote, the Aborts, the abort record and End — matches it
//     exactly;
//   - an unfinished node is only checked for overruns, since its
//     remaining records may still be in flight.
//
// Paying *more* than the model is always a violation: it means an
// optimized path lost an optimization (a PC subordinate forcing its
// commit record, an ack sent where the variant presumes it, a
// duplicated flow) — precisely the regressions the paper's accounting
// argument exists to prevent.
//
// The audit assumes the flat-tree, no-delegation configuration the
// serving daemon runs (Last Agent changes both sides' flow counts);
// nodes with an unknown role are skipped rather than guessed at.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/analytic"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// Violation is one conformance failure: a node that spent more than
// the closed form allows, or a finished commit that does not match it
// exactly.
type Violation struct {
	Tx       string
	Node     string
	Role     metrics.Role
	Variant  string
	Outcome  string
	Measured analytic.Triplet
	Expected analytic.Triplet
	Exact    bool // expectation was an exact form, not a ceiling
	Detail   string
}

func (v Violation) String() string {
	rel := "exceeds ceiling"
	if v.Exact {
		rel = "!= expected"
	}
	return fmt.Sprintf("tx %s %s %s (%s/%s): measured (%s) %s (%s): %s",
		v.Tx, v.Role, v.Node, v.Variant, v.Outcome, v.Measured, rel, v.Expected, v.Detail)
}

// Report is the outcome of one conformance pass.
type Report struct {
	// Checked counts node-entries examined; Exact the subset that
	// matched a closed form exactly; Skipped the entries with no
	// applicable form (unknown role or variant, open coordinator
	// entries with undeclared membership).
	Checked, Exact, Skipped int
	Violations              []Violation
}

// OK reports a clean pass.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Merge folds o's tallies into r.
func (r *Report) Merge(o Report) {
	r.Checked += o.Checked
	r.Exact += o.Exact
	r.Skipped += o.Skipped
	r.Violations = append(r.Violations, o.Violations...)
}

// String summarizes the report, one violation per line.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d checked, %d exact, %d skipped, %d violations",
		r.Checked, r.Exact, r.Skipped, len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// measured extracts the (flows, writes, forced) triplet of one node's
// counters; Extra flows (retransmissions, duplicates, recovery) are
// excluded by construction — the ledger keeps them in a separate
// column precisely so lossy runs stay comparable to the closed forms.
func measured(c metrics.CostCounters) analytic.Triplet {
	return analytic.Triplet{Flows: c.Flows, Writes: c.Writes(), Forced: c.Forced}
}

func exceeds(m, bound analytic.Triplet) bool {
	return m.Flows > bound.Flows || m.Writes > bound.Writes || m.Forced > bound.Forced
}

// Conformance audits a batch of cost-ledger entries (from
// Registry.CostDrainClosed or CostSnapshot). Entries still open are
// overrun-checked only.
func Conformance(views []metrics.TxCostView) Report {
	var rep Report
	for _, v := range views {
		rep.Merge(auditTx(v))
	}
	return rep
}

// auditTx audits every node entry of one transaction, in the view's
// name order.
func auditTx(v metrics.TxCostView) Report {
	var rep Report
	for _, nc := range v.Nodes {
		exp, exact, ok := expectation(v, nc)
		if !ok {
			rep.Skipped++
			continue
		}
		rep.Checked++
		m := measured(nc.CostCounters)
		switch {
		case exact && nc.Done && (v.Outcome != "" || nc.Role == metrics.RoleReadOnly):
			if m != exp {
				rep.Violations = append(rep.Violations, violation(v, nc, m, exp, true))
			} else {
				rep.Exact++
			}
		case exceeds(m, exp):
			// Open or abort-bounded entries: overruns only.
			rep.Violations = append(rep.Violations, violation(v, nc, m, exp, false))
		case m == exp && nc.Done && v.Outcome != "":
			// A finished abort that spent its whole form: a subordinate
			// that prepared, a coordinator that told every volunteer.
			rep.Exact++
		}
	}
	return rep
}

// expectation picks the closed form (or ceiling) for one node's part
// in one transaction. exact reports whether the form is an equality
// target for finished nodes; ok is false when no form applies.
func expectation(v metrics.TxCostView, nc metrics.NodeCostView) (exp analytic.Triplet, exact, ok bool) {
	if v.Variant == "" {
		return analytic.Triplet{}, false, false
	}
	switch nc.Role {
	case metrics.RoleReadOnly:
		// One vote, nothing logged, regardless of variant or outcome.
		return analytic.ReadOnlySubCost(), true, true
	case metrics.RoleCoordinator:
		if v.Subs < 0 {
			return analytic.Triplet{}, false, false
		}
		if v.Outcome == "committed" {
			// Read-only voters drop out of phase two: the coordinator
			// delivers the outcome to fewer members than it prepared,
			// and with no delivery its own vote decides what it logs.
			// Volunteers were sent no Prepare.
			delivered := v.Delivered
			if delivered < 0 {
				delivered = v.Subs
			}
			exp, formOK := analytic.CoordCommitCost(v.Variant, v.Subs, delivered, v.Volunteers, v.CoordReadOnly)
			return exp, formOK, formOK
		}
		// No Prepare went to a volunteer, and no Abort to a read-only
		// voter.
		told := v.Delivered
		if told < 0 {
			told = v.Subs
		}
		exp, formOK := analytic.CoordAbortCost(v.Variant, v.Subs, told, v.Volunteers)
		return exp, false, formOK
	case metrics.RoleSubordinate, metrics.RoleAcceptorSub:
		// A subordinate's closed form is membership-independent for the
		// classic variants, but a Paxos subordinate's flow count is the
		// acceptor-set size, which the coordinator's declared membership
		// determines — without it only the universal abort ceiling of a
		// two-member tree would apply, so skip instead of guessing.
		subs := 1
		if v.Variant == protocol.VariantPaxos.String() {
			if v.Subs < 0 {
				return analytic.Triplet{}, false, false
			}
			subs = v.Subs
		}
		if v.Outcome == "committed" {
			rc, formOK := analytic.CommitCostByRole(v.Variant, subs)
			if !formOK {
				return analytic.Triplet{}, false, false
			}
			exp = rc.Subordinate
			if nc.Role == metrics.RoleAcceptorSub {
				exp = analytic.PaxosAcceptorSubCost(analytic.PaxosAcceptorCount(subs))
			}
			return exp, true, true
		}
		rc, formOK := analytic.AbortCostBoundByRole(v.Variant, subs)
		if !formOK {
			return analytic.Triplet{}, false, false
		}
		return rc.Subordinate, false, true
	default:
		return analytic.Triplet{}, false, false
	}
}

func violation(v metrics.TxCostView, nc metrics.NodeCostView, m, exp analytic.Triplet, exact bool) Violation {
	detail := "runtime spent more than the analytic model allows"
	if exact && !exceeds(m, exp) {
		detail = "finished commit did not spend the full closed form (a flow or record is missing or misattributed)"
	}
	return Violation{
		Tx:       v.Tx,
		Node:     nc.Name,
		Role:     nc.Role,
		Variant:  v.Variant,
		Outcome:  v.Outcome,
		Measured: m,
		Expected: exp,
		Exact:    exact,
		Detail:   detail,
	}
}
