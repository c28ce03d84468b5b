// Package analytic encodes the closed-form message and log-write
// formulas of the paper's §4 and Tables 2-4, so the measured counts
// from the simulator can be cross-checked row by row.
//
// Notation follows the paper: a transaction tree has n members
// (participants including the coordinator), of which m follow the
// optimization being analyzed; Table 4 chains r two-member
// transactions. A triplet is (message flows, log writes, forced
// writes), total across all participants.
//
// Where the scanned tables are garbled (see DESIGN.md), the formulas
// here derive from the paper's own per-optimization savings text:
// e.g. basic 2PC costs 4(n-1) flows, read-only saves 2m flows, and so
// on.
package analytic

import "fmt"

// Triplet is the (#messages, #log writes, #forced writes) notation of
// the paper's Tables 3 and 4.
type Triplet struct {
	Flows  int
	Writes int
	Forced int
}

// String renders "f, w, fw" like the paper's table cells.
func (t Triplet) String() string { return fmt.Sprintf("%d, %d, %d", t.Flows, t.Writes, t.Forced) }

// Add returns the element-wise sum of two triplets.
func (t Triplet) Add(o Triplet) Triplet {
	return Triplet{t.Flows + o.Flows, t.Writes + o.Writes, t.Forced + o.Forced}
}

// Basic2PC is the baseline cost for a flat tree of n members (one
// coordinator, n-1 leaf subordinates), commit case:
//
//	flows:  4(n-1)          prepare, vote, commit, ack per subordinate
//	writes: 3n-1            coordinator Committed+End, each sub Prepared+Committed+End
//	forced: 2n-1            all but the END records
func Basic2PC(n int) Triplet {
	return Triplet{
		Flows:  4 * (n - 1),
		Writes: 3*n - 1,
		Forced: 2*n - 1,
	}
}

// PN is Presumed Nothing for a flat tree of n members, commit case:
// the coordinator adds a forced Pending, each subordinate adds
// a forced AgentPending.
func PN(n int) Triplet {
	b := Basic2PC(n)
	b.Writes += n // pending record at every member
	b.Forced += n // all pending records are forced
	return b
}

// PACommit equals the baseline in the commit case.
func PACommit(n int) Triplet { return Basic2PC(n) }

// PAReadOnlyAll is the all-read-only PA case: one prepare out and one
// read-only vote back per subordinate, no logging at all.
func PAReadOnlyAll(n int) Triplet {
	return Triplet{Flows: 2 * (n - 1), Writes: 0, Forced: 0}
}

// ReadOnly is PA & Read Only for n members of which m vote read-only
// (m < n: the coordinator and the remaining members update). Each
// read-only member saves 2 flows (commit, ack) and its 3 log writes
// (2 forced).
func ReadOnly(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= 2 * m
	b.Writes -= 3 * m
	b.Forced -= 2 * m
	return b
}

// LeaveOut is PA & OK-to-leave-out: each left-out member saves all 4
// of its flows and all of its logging.
func LeaveOut(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= 4 * m
	b.Writes -= 3 * m
	b.Forced -= 2 * m
	return b
}

// LastAgent is PA & Last Agent with m delegations in the tree: each
// saves 2 flows (prepare and ack replaced by the single round trip)
// but costs one extra forced write at the delegating coordinator
// (PA). Against the flat baseline the agent also drops its END-less
// accounting; the paper's row keeps log writes unchanged, which is
// what preparing-the-coordinator + agent-skips-prepared nets out to.
func LastAgent(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= 2 * m
	return b
}

// UnsolicitedVote saves the Prepare flow for each of the m
// unsolicited voters.
func UnsolicitedVote(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= m
	return b
}

// VoteReliable saves the explicit commit ack of each of the m
// reliable members (the implied ack replaces it).
func VoteReliable(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= m
	return b
}

// WaitForOutcome changes nothing in the normal case.
func WaitForOutcome(n, m int) Triplet { return Basic2PC(n) }

// SharedLogs removes the 2 forced writes of each of the m
// subordinates whose LRM shares the transaction manager's log. Write
// counts are unchanged — the records still exist, they are just not
// forced individually.
func SharedLogs(n, m int) Triplet {
	b := Basic2PC(n)
	b.Forced -= 2 * m
	return b
}

// LongLocks saves the standalone ack packet of each of the m members
// that piggyback it on the next transaction's data.
func LongLocks(n, m int) Triplet {
	b := Basic2PC(n)
	b.Flows -= m
	return b
}

// Table4Basic is r chained two-member transactions under basic 2PC:
// 4 flows, 5 log writes (2 coordinator + 3 subordinate), 3 forced
// per transaction.
func Table4Basic(r int) Triplet {
	return Triplet{Flows: 4 * r, Writes: 5 * r, Forced: 3 * r}
}

// Table4LongLocks is PA & Long Locks, not last agent: the ack
// piggybacks, leaving 3 standalone flows per transaction.
func Table4LongLocks(r int) Triplet {
	t := Table4Basic(r)
	t.Flows = 3 * r
	return t
}

// Table4LongLocksLastAgent is PA & Long Locks & Last Agent: the paper
// reports 3r/2 flows — two transactions commit in three steps once
// the chain is warm.
func Table4LongLocksLastAgent(r int) Triplet {
	t := Table4Basic(r)
	t.Flows = 3 * r / 2
	return t
}

// GroupCommitSyncs estimates physical syncs for n transactions of 3
// forced writes each under group commit of size m: ceil(3n/m).
func GroupCommitSyncs(n, m int) int {
	if m < 1 {
		m = 1
	}
	total := 3 * n
	return (total + m - 1) / m
}

// GroupCommitSavings is the forced-I/O savings group commit yields:
// 3n(1 - 1/m) in the paper's simple model.
func GroupCommitSavings(n, m int) int {
	return 3*n - GroupCommitSyncs(n, m)
}

// PNLive is Presumed Nothing as the live runtime implements it: the
// coordinator forces its pending record before the first Prepare, but
// each subordinate folds its "agent pending" state into the Prepared
// record it forces anyway, so only the coordinator pays extra over
// the baseline. This is a strict improvement on the paper's Table 3
// accounting (see PN), which charges a separate forced pending record
// at every member; the runtime conformance audit checks the live
// runtime against this form exactly and against PN as an upper bound.
func PNLive(n int) Triplet {
	b := Basic2PC(n)
	b.Writes++ // forced Pending at the coordinator only
	b.Forced++
	return b
}

// RoleCost splits a commit-case closed form between the coordinator
// and one subordinate, for a flat tree with subs leaf subordinates
// (n = subs + 1 members). The runtime conformance audit checks each
// role's measured spend against these, because over real TCP each
// process only observes its own side of the protocol.
//
// Per variant, commit case, per the same derivations as the totals
// (a is the Paxos acceptor count, PaxosAcceptorCount(s)):
//
//	           coordinator                        one subordinate
//	baseline   2s flows,     2 writes, 1 forced   2 flows, 3 writes, 2 forced
//	PA         2s flows,     2 writes, 1 forced   2 flows, 3 writes, 2 forced
//	PN         2s flows,     3 writes, 2 forced   2 flows, 3 writes, 2 forced
//	PC         2s flows,     3 writes, 2 forced   1 flow,  3 writes, 1 forced
//	Paxos      2s+a-1 flows, 3 writes, 1 forced   a flows, 3 writes, 1 forced
//	1PC        2s flows,     2 writes, 1 forced   2 flows, 2 writes, 0 forced
//
// A Paxos acceptor-subordinate's share is PaxosAcceptorSubCost
// instead. Coordinator totals always recombine with subs subordinate
// shares to the corresponding whole-tree form (Basic2PC, PACommit,
// PNLive, PC, OnePhase, PaxosCommitTotal).
type RoleCost struct {
	Coordinator Triplet // the coordinator's whole share
	Subordinate Triplet // one subordinate's share
}

// CommitCostByRole returns the live runtime's per-role commit-case
// costs for the named variant ("Basic2PC", "PA", "PN", "PC",
// "PaxosCommit", "1PC" — the protocol.Variant String names) over subs
// subordinates. ok is false for an unknown variant name.
func CommitCostByRole(variant string, subs int) (RoleCost, bool) {
	coord := Triplet{Flows: 2 * subs, Writes: 2, Forced: 1}
	sub := Triplet{Flows: 2, Writes: 3, Forced: 2}
	switch variant {
	case "Basic2PC", "PA":
	case "PN":
		coord.Writes++ // forced Pending before the first Prepare
		coord.Forced++
	case "PC":
		coord.Writes++ // forced Collecting before the first Prepare
		coord.Forced++
		sub.Flows--  // no commit ack
		sub.Forced-- // subordinate commit record not forced
	case "PaxosCommit":
		a := PaxosAcceptorCount(subs)
		// Coordinator: s Prepares + (a-1) own-instance accepts + s
		// Commits; one forced PaxAccept bundle, lazy Committed + End.
		coord = Triplet{Flows: 2*subs + a - 1, Writes: 3, Forced: 1}
		// Plain subordinate: a ballot-0 accepts; forced Prepared, lazy
		// Committed + End. Acceptor-subordinates additionally force the
		// bundle and send one Accepted: see PaxosAcceptorSubCost.
		sub = Triplet{Flows: a, Writes: 3, Forced: 1}
	case "1PC":
		// Logless one-phase fast path: the flow count matches the
		// baseline (prepare, vote, commit, ack per subordinate — the
		// latency win comes from overlapping them, not deleting them),
		// but the subordinate forces NOTHING: its vote's durability is
		// delegated to the coordinator's single forced decision record.
		// Subordinate: lazy Committed + lazy End only.
		sub = Triplet{Flows: 2, Writes: 2, Forced: 0}
	default:
		return RoleCost{}, false
	}
	return RoleCost{Coordinator: coord, Subordinate: sub}, true
}

// AbortCostBoundByRole returns per-role upper bounds for the abort
// case of the named variant. Abort costs vary with when the abort
// struck (a no-voter never forces a Prepared record; a coordinator
// abort may reach only some members), so the audit checks aborts
// against a ceiling rather than an exact form: no abort may cost more
// than the variant's prepared-then-aborted path.
//
//	coordinator: the init record (PN/PC) plus the abort record —
//	  forced except under PA, where absence presumes abort — plus the
//	  non-forced End; flows bounded by prepare+abort to every member.
//	subordinate: Prepared plus the abort record (forced except PA)
//	  plus End; flows bounded by vote+ack (PA skips the abort ack).
func AbortCostBoundByRole(variant string, subs int) (RoleCost, bool) {
	coord := Triplet{Flows: 2 * subs, Writes: 2, Forced: 1}
	sub := Triplet{Flows: 2, Writes: 3, Forced: 2}
	switch variant {
	case "Basic2PC", "PN", "PC":
		if variant != "Basic2PC" {
			coord.Writes++ // forced Pending/Collecting
			coord.Forced++
		}
	case "PA":
		coord.Forced-- // abort record is presumed: non-forced
		sub.Flows--    // no abort ack
		sub.Forced--   // abort record non-forced
	case "PaxosCommit":
		// Ceiling: the full fast path ran before the abort landed
		// (bundle forced everywhere), recovery traffic is accounted as
		// Extra and so excluded from Flows.
		a := PaxosAcceptorCount(subs)
		coord = Triplet{Flows: 2*subs + a - 1, Writes: 3, Forced: 1}
		sub = Triplet{Flows: a, Writes: 4, Forced: 2}
	case "1PC":
		// Fully PA-style: absence of the coordinator's decision record
		// presumes abort, so nothing on the abort path is forced and no
		// abort ack flows. The voter never wrote a Prepared record in
		// the first place, so its ceiling is one flow (the vote) and the
		// lazy Aborted + End pair.
		coord.Forced--
		sub.Flows--
		sub.Writes--
		sub.Forced -= 2
	default:
		return RoleCost{}, false
	}
	return RoleCost{Coordinator: coord, Subordinate: sub}, true
}

// VolunteerAbortCost is the per-role spend of an abort whose
// coordinator sent no Prepare, because each of its subs subordinates
// had volunteered its vote (§4 Unsolicited Vote; PA and Basic 2PC),
// and that it tells each of them: the coordinator sends subs Aborts
// and writes what the variant's abort asks for — nothing under PA, a
// forced abort record under Basic 2PC — and End. A subordinate that
// voted yes spent its prepared-then-aborted share, the subordinate
// abort ceiling: its vote, its forced Prepared, the abort record (lazy
// and unacknowledged under PA; forced and acknowledged under Basic
// 2PC) and End.
func VolunteerAbortCost(variant string, subs int) (RoleCost, bool) {
	coord := Triplet{Flows: subs, Writes: 2, Forced: 1}
	switch variant {
	case "Basic2PC":
	case "PA":
		coord.Writes, coord.Forced = 1, 0
	default:
		return RoleCost{}, false
	}
	rc, _ := AbortCostBoundByRole(variant, subs)
	return RoleCost{Coordinator: coord, Subordinate: rc.Subordinate}, true
}

// CoordAbortCost is an aborting coordinator's ceiling over subs
// subordinates when volunteers of them voted before any Prepare (§4
// Unsolicited Vote) and told of them were sent the Abort: it sends no
// Prepare to a volunteer, and no outcome to a read-only voter, which
// left at its vote (§4 Read Only), so each saves it a flow. With every
// subordinate a volunteer the form is VolunteerAbortCost's, less the
// read-only voters' Aborts. Paxos Commit's abort is told to all.
func CoordAbortCost(variant string, subs, told, volunteers int) (Triplet, bool) {
	rc, ok := AbortCostBoundByRole(variant, subs)
	if vc, vok := VolunteerAbortCost(variant, subs); vok && volunteers == subs {
		rc = vc
	} else {
		rc.Coordinator.Flows -= volunteers
	}
	c := rc.Coordinator
	c.Flows -= subs - told
	return c, ok
}

// ReadOnlySubCost is one read-only subordinate's share under any
// variant: the vote is its only flow and nothing is logged (§4
// Read-Only).
func ReadOnlySubCost() Triplet { return Triplet{Flows: 1} }

// CoordCommitCost is a committing coordinator's share over subs
// subordinates when only delivered of them voted yes: the others voted
// read-only and left at their vote, so the coordinator sends them no
// outcome. volunteers of the subs voted before any Prepare reached
// them (§4 Unsolicited Vote), so the coordinator sends them no Prepare
// either: each saves it one flow, read-only voter or not (a volunteer
// sends the same vote flow, so a subordinate's share is unchanged, and
// the tree sums to UnsolicitedVote). ownReadOnly says the
// coordinator's own resources voted read-only too. With no yes-voter
// that makes the round read-only: no commit record is written, and End
// is written only to close a pre-prepare record (PN's Pending, PC's
// Collecting). Under PA, Basic 2PC and 1PC such a coordinator logs
// nothing at all (PAReadOnlyAll). Paxos Commit folds read-only votes
// to yes, so delivered is always subs there and its form is the write
// form.
func CoordCommitCost(variant string, subs, delivered, volunteers int, ownReadOnly bool) (Triplet, bool) {
	rc, ok := CommitCostByRole(variant, subs)
	if !ok {
		return Triplet{}, false
	}
	c := rc.Coordinator
	c.Flows -= subs - delivered + volunteers
	if delivered == 0 && ownReadOnly && variant != "PaxosCommit" {
		c.Writes, c.Forced = 0, 0
		if variant == "PN" || variant == "PC" {
			c.Writes, c.Forced = 2, 1 // the forced pre-prepare record and End
		}
	}
	return c, true
}

// CommitCostByVotes is a flat tree's whole commit-case spend when the
// votes are known: subs subordinates of which readOnlySubs voted
// read-only and volunteers voted unsolicited, and whether the
// coordinator's own resources voted read-only. It sums CoordCommitCost
// with the subordinates' shares: ReadOnlySubCost for each read-only
// voter, the variant's subordinate form for the others
// (PaxosAcceptorSubCost on the acceptor-subordinates). Under Paxos
// Commit every vote counts as yes.
func CommitCostByVotes(variant string, subs, readOnlySubs, volunteers int, ownReadOnly bool) (Triplet, bool) {
	rc, ok := CommitCostByRole(variant, subs)
	if !ok {
		return Triplet{}, false
	}
	if variant == "PaxosCommit" {
		readOnlySubs, ownReadOnly = 0, false
	}
	t, _ := CoordCommitCost(variant, subs, subs-readOnlySubs, volunteers, ownReadOnly)
	for i := 0; i < subs; i++ {
		switch {
		case i < readOnlySubs:
			t = t.Add(ReadOnlySubCost())
		case variant == "PaxosCommit" && i < PaxosAcceptorCount(subs)-1:
			t = t.Add(PaxosAcceptorSubCost(PaxosAcceptorCount(subs)))
		default:
			t = t.Add(rc.Subordinate)
		}
	}
	return t, true
}

// PaxosAcceptorCount is the acceptor-set size for a flat Paxos Commit
// tree with subs leaf subordinates: the first 2f+1 of [coordinator,
// S1, S2, ...]. With fewer than two subordinates there is no third
// node to colocate an acceptor on, so f=0 and the coordinator is the
// sole acceptor.
func PaxosAcceptorCount(subs int) int {
	if subs < 2 {
		return 1
	}
	return 3
}

// PaxosCommitTotal is Paxos Commit (Gray & Lamport) for a flat tree of
// n = s+1 members, commit case, with acceptors colocated per
// PaxosAcceptorCount. Derivation (a = acceptor count):
//
//	coordinator: s Prepares + (a-1) own-instance accepts + s Commits
//	  flows = 2s+a-1; one forced bundled PaxAccept, lazy Committed and
//	  End → 3 writes, 1 forced.
//	acceptor-subordinate (the 2 colocated acceptors when s ≥ 2):
//	  (a-1) accepts + 1 bundled Accepted = a flows; forced Prepared and
//	  PaxAccept, lazy Committed and End → 4 writes, 2 forced.
//	plain subordinate: a accepts = a flows; forced Prepared, lazy
//	  Committed and End → 3 writes, 1 forced.
//
// Totals: s ≥ 2 → {5s+2, 3s+5, s+3}; s = 1 → {3, 6, 2}. Against
// Basic2PC the commit case trades the per-subordinate ack for an
// acceptor round: one extra message delay and two extra acceptor
// forces buy the non-blocking property.
func PaxosCommitTotal(n int) Triplet {
	s := n - 1
	a := PaxosAcceptorCount(s)
	coord := Triplet{Flows: 2*s + a - 1, Writes: 3, Forced: 1}
	t := coord
	accSubs := a - 1 // acceptors colocated on subordinates
	for i := 0; i < accSubs; i++ {
		t = t.Add(Triplet{Flows: a, Writes: 4, Forced: 2})
	}
	for i := 0; i < s-accSubs; i++ {
		t = t.Add(Triplet{Flows: a, Writes: 3, Forced: 1})
	}
	return t
}

// PaxosAcceptorSubCost is one acceptor-subordinate's commit-case share
// for a tree whose acceptor set has a members (see PaxosCommitTotal).
func PaxosAcceptorSubCost(a int) Triplet {
	return Triplet{Flows: a, Writes: 4, Forced: 2}
}

// OnePhase is the logless one-phase fast path for a flat tree of n
// members, commit case. Derivation (s = n-1 leaf subordinates):
//
//	flows:  4(n-1)  unchanged from the baseline — prepare, vote,
//	        commit, ack still all flow; the win is that the vote
//	        carries the redo so the coordinator decides after ONE round
//	        and acks leave the caller's critical path.
//	writes: 2n      coordinator forced Committed (naming members and
//	        embedding redos) + lazy End; each subordinate lazy
//	        Committed + lazy End, no Prepared record at all.
//	forced: 1       the coordinator's decision record is the only
//	        stable state in the whole tree.
//
// Against Basic2PC {4(n-1), 3n-1, 2n-1} this saves n-1 writes and
// 2(n-1) forces — every subordinate fsync on the commit path is gone.
// The tradeoff (see DESIGN.md §16): the decision record grows with the
// tree's redo volume, aborts discard the subordinates' work with no
// local record of it, and wide fan-outs concentrate all durability
// bandwidth on the coordinator's log.
func OnePhase(n int) Triplet {
	return Triplet{Flows: 4 * (n - 1), Writes: 2 * n, Forced: 1}
}

// PC is Presumed Commit (the R*-lineage dual of PA, implemented here
// as the extension variant) for a flat tree of n members, commit
// case: the coordinator adds one forced collecting record; every
// subordinate drops its forced commit record (it stays as a
// non-forced write) and its acknowledgment flow.
func PC(n int) Triplet {
	b := Basic2PC(n)
	b.Flows -= n - 1  // no commit acks
	b.Writes++        // collecting record at the coordinator
	b.Forced++        // ...forced
	b.Forced -= n - 1 // subordinate commit records not forced
	return b
}
