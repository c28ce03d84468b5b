// Package check is the trace-driven safety oracle and chaos scheduler
// for the commit protocols: it consumes internal/trace events produced
// by either engine (the deterministic simulator in internal/core or
// the concurrent runtime in internal/live) and asserts the invariants
// that make the paper's optimizations sound, under schedules of
// crashes, restarts, partitions, and message loss generated from a
// single replayable seed.
//
// The invariants, in the shape Gray & Lamport ("Consensus on
// Transaction Commit") state transaction commit:
//
//	AC1  No two participants apply different outcomes (heuristic
//	     decisions excepted — they are the sanctioned violation, and
//	     must be flagged as such in the trace).
//	AC2  A commit decision requires every asked participant's yes
//	     vote; a subordinate commits only when told to.
//	AC3  A forced log record precedes every message the paper requires
//	     it to precede, and the presumption variants' skipped forces
//	     are the ONLY skipped forces.
//	AC4  After recovery, in-doubt participants resolve to the
//	     coordinator's outcome (the baseline's amnesia blocking is the
//	     known exception), and heuristic damage reaches the root
//	     under PN.
//	AC5  Locks release no earlier than the variant permits: never
//	     before the local decision point.
//
// Paxos Commit (protocol.VariantPaxos) swaps AC4 for its strict form:
//
//	AC4Strict  While a majority of the acceptors survives, no live
//	           node may end a run in doubt — not even when the
//	           coordinator crashed and never restarted. The blocking
//	           window the other variants merely shrink must be gone.
package check

import (
	"fmt"
	"strings"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// Final is one node's state when a run ends, as read from the engine
// (simulator node tables or live logs/decided maps) rather than the
// trace — the oracle cross-checks the two.
type Final struct {
	// Crashed reports the node was down (and never restarted) at the
	// end of the run; its unresolved state is excused.
	Crashed bool
	// Outcomes maps transaction id to the applied outcome (true =
	// committed) for every transaction the node knows decided.
	Outcomes map[string]bool
	// InDoubt maps transaction id to true when the node still holds
	// the transaction prepared with no outcome.
	InDoubt map[string]bool
}

// Run is everything the oracle checks: the variant the run was
// configured with, the full event trace, and (optionally) the final
// per-node state.
type Run struct {
	Variant protocol.Variant
	Events  []trace.Event
	Final   map[string]Final
}

// Violation is one invariant breach, anchored to the trace.
type Violation struct {
	Rule string // "AC1" .. "AC5", or "AC4Strict" under Paxos Commit
	Tx   string
	Node string
	Seq  int // sequence number of the offending (or anchoring) event
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s tx=%s node=%s seq=%d: %s", v.Rule, v.Tx, v.Node, v.Seq, v.Msg)
}

// Check runs every invariant over the run and returns the violations
// found (nil for a clean run).
func Check(r Run) []Violation {
	var out []Violation
	byTx := make(map[string][]trace.Event)
	var order []string
	for _, e := range r.Events {
		if e.Tx == "" {
			continue
		}
		if _, ok := byTx[e.Tx]; !ok {
			order = append(order, e.Tx)
		}
		byTx[e.Tx] = append(byTx[e.Tx], e)
	}
	for _, tx := range order {
		v := &txView{variant: r.Variant, tx: tx, events: byTx[tx], final: r.Final}
		out = append(out, v.check()...)
	}
	return out
}

// txView is the oracle's working state for one transaction.
type txView struct {
	variant protocol.Variant
	tx      string
	events  []trace.Event // in Seq order
	final   map[string]Final
}

// pendingKinds are the stable pre-prepare records PN and PC stand on:
// the rulebook's coordinator records, and PN's AgentPending, which
// only the simulator's subordinates write.
var pendingKinds = map[string]bool{
	"Pending": true, "Collecting": true, "AgentPending": true,
}

// preparedKind is the record a yes vote, and a delegation, stands on.
var preparedKind = map[string]bool{"Prepared": true}

// tmKinds are the transaction-manager record kinds the force rules
// govern; anything else in the log belongs to a resource manager.
var tmKinds = map[string]bool{
	"Pending": true, "Collecting": true, "AgentPending": true,
	"Prepared": true, "Committed": true, "Aborted": true,
	"End": true, "Heuristic": true,
	"PaxAccept": true, "PaxPromise": true,
}

// msgBase strips the transaction suffix and option flags from a traced
// message detail: "VoteYes+Reliable(C:1)" -> "VoteYes".
func msgBase(detail string) string {
	if i := strings.LastIndex(detail, "("); i >= 0 {
		detail = detail[:i]
	}
	if i := strings.Index(detail, "+"); i >= 0 {
		detail = detail[:i]
	}
	return detail
}

// msgHasFlag reports whether a traced message detail carries the named
// option flag ("Delegate", "Heuristics", ...).
func msgHasFlag(detail, flag string) bool {
	if i := strings.LastIndex(detail, "("); i >= 0 {
		detail = detail[:i]
	}
	parts := strings.Split(detail, "+")
	for _, p := range parts[1:] {
		if p == flag {
			return true
		}
	}
	return false
}

// before reports whether any event with Seq < seq satisfies pred.
func (v *txView) before(seq int, pred func(trace.Event) bool) bool {
	for _, e := range v.events {
		if e.Seq >= seq {
			return false
		}
		if pred(e) {
			return true
		}
	}
	return false
}

func (v *txView) logWriteBefore(node string, seq int, kinds map[string]bool, mustForce bool) bool {
	return v.before(seq, func(e trace.Event) bool {
		return e.Kind == trace.KindLogWrite && e.Node == node &&
			kinds[e.Detail] && (!mustForce || e.Forced)
	})
}

func (v *txView) receivedBefore(node string, seq int, bases ...string) bool {
	return v.before(seq, func(e trace.Event) bool {
		if e.Kind != trace.KindReceive || e.Node != node {
			return false
		}
		b := msgBase(e.Detail)
		for _, want := range bases {
			if b == want {
				return true
			}
		}
		return false
	})
}

// sentPrepareBefore reports whether node sent any Prepare of its own
// before seq — true for coordinators and cascaded intermediates, false
// for leaf voters. 1PC's vote-force elision is sanctioned only for the
// latter.
func (v *txView) sentPrepareBefore(node string, seq int) bool {
	return v.before(seq, func(e trace.Event) bool {
		return e.Kind == trace.KindSend && e.Node == node && msgBase(e.Detail) == "Prepare"
	})
}

// preNamesAgent reports whether node's delegation at seq stands on a
// forced pre-prepare record that names the agent. Only an initiator
// whose one partner is the agent writes one (the simulator's
// single-partner case): it asked nobody to prepare and heard no Prepare
// or vote before it delegated. A runtime pre-prepare record never
// names the agent, and the runtime delegates with a Prepare, not a vote.
func (v *txView) preNamesAgent(node string, seq int) bool {
	return !v.sentPrepareBefore(node, seq) &&
		!v.receivedBefore(node, seq, "Prepare", "VoteYes", "VoteNo", "VoteReadOnly") &&
		v.logWriteBefore(node, seq, pendingKinds, true)
}

// receivedPlainPrepare reports whether node was asked to prepare as an
// ordinary subordinate (a Prepare without the Delegate flag) — the
// role that must never invent an outcome and whose PC commit record
// may stay lazy.
func (v *txView) receivedPlainPrepare(node string) bool {
	for _, e := range v.events {
		if e.Kind == trace.KindReceive && e.Node == node &&
			msgBase(e.Detail) == "Prepare" && !msgHasFlag(e.Detail, "Delegate") {
			return true
		}
	}
	return false
}

// heuristicAt reports whether node took a traced heuristic decision
// for this transaction (a forced Heuristic record), the one sanctioned
// way to diverge from the global outcome.
func (v *txView) heuristicAt(node string) bool {
	for _, e := range v.events {
		if e.Kind == trace.KindLogWrite && e.Node == node && e.Detail == "Heuristic" {
			return true
		}
	}
	return false
}

// paxosAcceptors reconstructs the Paxos Commit acceptor set for this
// transaction's flat tree: the coordinator alone when it has fewer
// than two subordinates, otherwise the coordinator plus the first two
// subordinates (the topology both engines install).
func (v *txView) paxosAcceptors() []string {
	nodes := make(map[string]bool)
	for _, e := range v.events {
		nodes[e.Node] = true
	}
	for n := range v.final {
		nodes[n] = true
	}
	subs := 0
	for n := range nodes {
		if n != "C" {
			subs++
		}
	}
	if subs < 2 {
		return []string{"C"}
	}
	return []string{"C", "S1", "S2"}
}

// paxosQuorum is the acceptor majority for this transaction's tree.
func (v *txView) paxosQuorum() int { return len(v.paxosAcceptors())/2 + 1 }

// paxosForcedAcceptsBefore counts the distinct nodes holding a forced
// PaxAccept record before seq — trace order is global, so this is the
// durable acceptance evidence the whole fleet had when seq happened.
func (v *txView) paxosForcedAcceptsBefore(seq int) int {
	nodes := make(map[string]bool)
	for _, e := range v.events {
		if e.Seq >= seq {
			break
		}
		if e.Kind == trace.KindLogWrite && e.Forced && e.Detail == "PaxAccept" {
			nodes[e.Node] = true
		}
	}
	return len(nodes)
}

// paxosEvidenceBefore counts node's quorum evidence for a commit
// decision at seq: distinct peers whose acceptance (a ballot-0 bundle
// ack or a recovery promise) node received, plus one when node's own
// acceptor state was forced locally.
func (v *txView) paxosEvidenceBefore(node string, seq int) int {
	peers := make(map[string]bool)
	self := 0
	for _, e := range v.events {
		if e.Seq >= seq {
			break
		}
		if e.Kind == trace.KindReceive && e.Node == node {
			switch msgBase(e.Detail) {
			case "PaxosAccepted", "PaxosPromise":
				peers[e.Peer] = true
			}
		}
		if e.Kind == trace.KindLogWrite && e.Node == node && e.Forced &&
			(e.Detail == "PaxAccept" || e.Detail == "PaxPromise") {
			self = 1
		}
	}
	return len(peers) + self
}

func (v *txView) check() []Violation {
	var out []Violation
	out = append(out, v.ac1()...)
	out = append(out, v.ac2()...)
	out = append(out, v.ac3()...)
	out = append(out, v.ac4()...)
	out = append(out, v.ac5()...)
	return out
}

func (v *txView) vio(rule, node string, seq int, format string, args ...any) Violation {
	return Violation{Rule: rule, Tx: v.tx, Node: node, Seq: seq, Msg: fmt.Sprintf(format, args...)}
}

// ac1: atomicity. Every non-heuristic participant that applies an
// outcome applies the same one, in the trace and in the final state.
func (v *txView) ac1() []Violation {
	var out []Violation
	last := make(map[string]bool) // node -> last decided outcome
	var nodeOrder []string
	for _, e := range v.events {
		if e.Kind != trace.KindDecision {
			continue
		}
		commit := strings.HasPrefix(e.Detail, "commit")
		if prev, ok := last[e.Node]; ok && prev != commit && !v.heuristicAt(e.Node) {
			out = append(out, v.vio("AC1", e.Node, e.Seq,
				"node decided both commit and abort without a heuristic record"))
		}
		if _, ok := last[e.Node]; !ok {
			nodeOrder = append(nodeOrder, e.Node)
		}
		last[e.Node] = commit
	}
	for node, f := range v.final {
		if o, ok := f.Outcomes[v.tx]; ok {
			if prev, seen := last[node]; seen && prev != o && !v.heuristicAt(node) {
				out = append(out, v.vio("AC1", node, 0,
					"final applied outcome disagrees with the node's traced decision"))
			}
			if _, seen := last[node]; !seen {
				nodeOrder = append(nodeOrder, node)
				last[node] = o
			}
		}
	}
	// Cross-node agreement among non-heuristic participants.
	firstNode, have := "", false
	var global bool
	for _, node := range nodeOrder {
		if v.heuristicAt(node) {
			continue
		}
		o := last[node]
		if !have {
			firstNode, global, have = node, o, true
			continue
		}
		if o != global {
			out = append(out, v.vio("AC1", node, 0,
				"applied %s but %s applied %s", word(o), firstNode, word(global)))
		}
	}
	return out
}

func word(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

// ac2: a commit decision is justified — either the node was told
// (received the outcome) or it owns the decision and holds a yes (or
// read-only) vote from every participant it asked.
func (v *txView) ac2() []Violation {
	var out []Violation
	// First commit decision per node.
	firstCommit := make(map[string]int)
	var nodes []string
	for _, e := range v.events {
		if e.Kind == trace.KindDecision && strings.HasPrefix(e.Detail, "commit") {
			if _, ok := firstCommit[e.Node]; !ok {
				firstCommit[e.Node] = e.Seq
				nodes = append(nodes, e.Node)
			}
		}
	}
	for _, node := range nodes {
		s := firstCommit[node]
		if v.heuristicAt(node) {
			continue // sanctioned unilateral decision; AC1/AC4 cover it
		}
		if v.receivedBefore(node, s, "Commit", "OutcomeCommit") {
			continue // told by the decision owner
		}
		if v.variant == protocol.VariantPaxos {
			// Under Paxos Commit the decision owner is whoever assembled
			// an acceptor quorum — the initial leader on the fast path, or
			// any participant that led a recovery round. The justification
			// is quorum evidence, not per-peer votes (those ride inside
			// the acceptance payloads).
			if got, q := v.paxosEvidenceBefore(node, s), v.paxosQuorum(); got < q {
				out = append(out, v.vio("AC2", node, s,
					"decided commit with acceptance evidence from %d node(s); the quorum is %d", got, q))
			}
			if v.before(s, func(ev trace.Event) bool {
				return ev.Kind == trace.KindReceive && ev.Node == node &&
					msgBase(ev.Detail) == "PaxosAccept" && msgHasFlag(ev.Detail, "VoteNo")
			}) {
				out = append(out, v.vio("AC2", node, s,
					"decided commit after accepting a No instance"))
			}
			continue
		}
		if v.receivedPlainPrepare(node) {
			out = append(out, v.vio("AC2", node, s,
				"subordinate decided commit without receiving the outcome"))
			continue
		}
		// Decision owner: unanimous yes among everyone asked before s.
		if v.receivedBefore(node, s, "VoteNo") {
			out = append(out, v.vio("AC2", node, s,
				"decided commit after receiving a no vote"))
		}
		for _, e := range v.events {
			if e.Seq >= s || e.Kind != trace.KindSend || e.Node != node || msgBase(e.Detail) != "Prepare" {
				continue
			}
			peer := e.Peer
			if msgHasFlag(e.Detail, "Delegate") {
				out = append(out, v.vio("AC2", node, s,
					"decided commit while the delegated agent %s had not answered", peer))
				continue
			}
			ok := v.before(s, func(ev trace.Event) bool {
				if ev.Kind != trace.KindReceive || ev.Node != node || ev.Peer != peer {
					return false
				}
				b := msgBase(ev.Detail)
				return b == "VoteYes" || b == "VoteReadOnly"
			})
			if !ok {
				out = append(out, v.vio("AC2", node, s,
					"decided commit without a yes vote from %s", peer))
			}
		}
	}
	return out
}

// ac3: the force rules. Forced records precede the messages that
// promise them, and only the variant's sanctioned lazy writes are
// lazy.
func (v *txView) ac3() []Violation {
	var out []Violation
	firstPrepareSend := make(map[string]int)
	for _, e := range v.events {
		if e.Kind != trace.KindSend {
			continue
		}
		base := msgBase(e.Detail)
		if base == "Prepare" {
			if _, ok := firstPrepareSend[e.Node]; !ok {
				firstPrepareSend[e.Node] = e.Seq
			}
		}
		switch base {
		case "VoteYes":
			if v.variant == protocol.Variant1PC && !v.sentPrepareBefore(e.Node, e.Seq) {
				// 1PC's one sanctioned vote-force elision: a LEAF voter
				// (one that asked nobody else to prepare) may answer yes
				// with nothing forced — its durability is delegated to the
				// coordinator's decision record. A cascaded intermediate
				// sent Prepares of its own; its subtree's votes are stable
				// nowhere else, so it must still force Prepared below.
				break
			}
			if msgHasFlag(e.Detail, "LastAgent") && v.preNamesAgent(e.Node, e.Seq) {
				break
			}
			if !v.logWriteBefore(e.Node, e.Seq, preparedKind, true) {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"yes vote sent without a forced Prepared record"))
			}
		case "Prepare":
			// The runtime's delegation: once it leaves, the agent owns
			// the outcome, and the yes-voters already heard from are in
			// doubt with this node. A restart must ask the agent, not
			// presume, so a record must say so.
			if msgHasFlag(e.Detail, "Delegate") && v.receivedBefore(e.Node, e.Seq, "VoteYes") &&
				!v.logWriteBefore(e.Node, e.Seq, preparedKind, true) {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"decision delegated after collecting yes votes with no forced Prepared record"))
			}
		case "Commit":
			if v.variant == protocol.VariantPaxos {
				// Paxos Commit's durable truth is the acceptor quorum's
				// forced acceptances, not the sender's own outcome record
				// (which stays lazy). The commit may only be announced
				// once a quorum of acceptors has hardened its state.
				if got, q := v.paxosForcedAcceptsBefore(e.Seq), v.paxosQuorum(); got < q {
					out = append(out, v.vio("AC3", e.Node, e.Seq,
						"Commit sent with forced acceptances at %d node(s); the quorum is %d", got, q))
				}
				break
			}
			// Lazy Committed before a relayed Commit is sanctioned for a
			// PC subordinate (commits are presumed) and for a 1PC
			// intermediate (the root's forced decision record is the
			// tree's durability). The decision OWNER's record must be
			// forced under both — under 1PC it is the only stable state
			// in the whole tree, which is exactly what the
			// OnePhaseLazyDecision injected bug violates.
			sub := v.receivedPlainPrepare(e.Node)
			mustForce := !(v.variant == protocol.VariantPC && sub) &&
				!(v.variant == protocol.Variant1PC && sub)
			if !v.logWriteBefore(e.Node, e.Seq, map[string]bool{"Committed": true}, mustForce) {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"Commit sent without a preceding Committed record (forced=%v required)", mustForce))
			}
		case "PaxosAccepted":
			// An acceptor's acknowledgment is a durability promise: the
			// accepted value must be on stable storage before the ack is
			// on the wire, exactly like a yes vote's Prepared record.
			if !v.logWriteBefore(e.Node, e.Seq, map[string]bool{"PaxAccept": true}, true) {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"acceptance acknowledged without a forced PaxAccept record"))
			}
		case "Abort":
			if v.variant == protocol.VariantPA || v.variant == protocol.Variant1PC {
				break // presumed abort: aborts need no stable record
			}
			forcedAny := v.before(e.Seq, func(ev trace.Event) bool {
				return ev.Kind == trace.KindLogWrite && ev.Node == e.Node && ev.Forced && tmKinds[ev.Detail]
			})
			if !forcedAny && v.receivedBefore(e.Node, e.Seq, "VoteYes") {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"Abort sent after collecting yes votes with nothing forced"))
			}
		case "Ack":
			done := map[string]bool{"Committed": true, "Aborted": true, "Heuristic": true}
			if v.logWriteBefore(e.Node, e.Seq, done, false) {
				break
			}
			votedYes := v.before(e.Seq, func(ev trace.Event) bool {
				return ev.Kind == trace.KindSend && ev.Node == e.Node && msgBase(ev.Detail) == "VoteYes"
			})
			if votedYes {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"Ack sent before the outcome was logged"))
			}
		}
	}
	// PN and PC hang their presumptions on a stable pre-prepare record:
	// a coordinator (root or cascaded) must force it before its first
	// Prepare leaves.
	if v.variant == protocol.VariantPN || v.variant == protocol.VariantPC {
		for node, seq := range firstPrepareSend {
			if !v.logWriteBefore(node, seq, pendingKinds, true) {
				out = append(out, v.vio("AC3", node, seq,
					"%s Prepare sent without a forced pending/collecting record", v.variant))
			}
		}
	}
	// Lazy allowlist: PA's and PC's skipped forces are the ONLY
	// skipped forces (plus End, which every variant writes lazily).
	for _, e := range v.events {
		if e.Kind != trace.KindLogWrite || e.Forced || !tmKinds[e.Detail] {
			continue
		}
		switch e.Detail {
		case "End":
			// Always lazy: its loss only costs redundant recovery work.
		case "Aborted":
			if v.variant != protocol.VariantPA && v.variant != protocol.VariantPaxos &&
				v.variant != protocol.Variant1PC {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"lazy Aborted record outside a presumed-abort variant"))
			}
		case "Committed":
			// Paxos Commit keeps every local outcome record lazy: the
			// acceptor quorum, not the node's own log, is what survives a
			// crash, so forcing here would buy nothing. Likewise a PC
			// subordinate (commits presumed) and a 1PC subordinate (the
			// coordinator's forced decision record is the tree's
			// durability) — but a 1PC decision OWNER's lazy Committed is
			// the injected OnePhaseLazyDecision bug, convicted here.
			if v.variant != protocol.VariantPaxos &&
				!(v.variant == protocol.VariantPC && v.receivedPlainPrepare(e.Node)) &&
				!(v.variant == protocol.Variant1PC && v.receivedPlainPrepare(e.Node)) {
				out = append(out, v.vio("AC3", e.Node, e.Seq,
					"lazy Committed record outside a subordinate whose variant presumes it"))
			}
		default:
			out = append(out, v.vio("AC3", e.Node, e.Seq,
				"record %s written lazily; the variant requires a force", e.Detail))
		}
	}
	return out
}

// ac4: recovery resolves doubt. A node that finishes the run prepared
// with no outcome is a violation unless it is still crashed or the
// variant is the baseline (whose coordinator amnesia famously blocks).
// Under PN a heuristic decision must be reported upstream on the ack.
//
// Paxos Commit gets the strict form, AC4Strict: the variant exists to
// delete the blocking window, so whenever a majority of the acceptors
// is alive at the end of the run — even if the coordinator died and
// NEVER came back — no live node may remain in doubt. Only the loss
// of the acceptor quorum itself excuses doubt.
func (v *txView) ac4() []Violation {
	var out []Violation
	if v.variant == protocol.VariantPaxos {
		survivors, q := 0, v.paxosQuorum()
		for _, a := range v.paxosAcceptors() {
			if f, ok := v.final[a]; ok && !f.Crashed {
				survivors++
			}
		}
		for node, f := range v.final {
			if !f.InDoubt[v.tx] || f.Crashed {
				continue
			}
			if survivors < q {
				continue // quorum lost: the one sanctioned blocking case
			}
			out = append(out, v.vio("AC4Strict", node, 0,
				"in doubt with %d of %d acceptors alive (quorum %d): Paxos Commit may never block here",
				survivors, len(v.paxosAcceptors()), q))
		}
		return out
	}
	for node, f := range v.final {
		if !f.InDoubt[v.tx] || f.Crashed {
			continue
		}
		if v.variant == protocol.VariantBaseline {
			continue // the known blocking case the presumptions remove
		}
		out = append(out, v.vio("AC4", node, 0,
			"still in doubt after recovery under %s", v.variant))
	}
	if v.variant == protocol.VariantPN {
		for _, e := range v.events {
			if e.Kind != trace.KindLogWrite || e.Detail != "Heuristic" {
				continue
			}
			node := e.Node
			var sawAck, sawReport bool
			for _, ev := range v.events {
				if ev.Seq <= e.Seq || ev.Kind != trace.KindSend || ev.Node != node {
					continue
				}
				if msgBase(ev.Detail) == "Ack" {
					sawAck = true
					if msgHasFlag(ev.Detail, "Heuristics") {
						sawReport = true
					}
				}
			}
			if sawAck && !sawReport {
				out = append(out, v.vio("AC4", node, e.Seq,
					"PN heuristic decision not reported on the acknowledgment"))
			}
		}
	}
	return out
}

// ac5: locks release no earlier than the variant permits — never
// before this node's own decision point (a decision taken, an outcome
// received, a no/read-only vote sent, or a decision record written).
func (v *txView) ac5() []Violation {
	var out []Violation
	for _, e := range v.events {
		if e.Kind != trace.KindUnlock {
			continue
		}
		node := e.Node
		ok := v.before(e.Seq, func(ev trace.Event) bool {
			if ev.Node != node {
				return false
			}
			switch ev.Kind {
			case trace.KindDecision:
				return true
			case trace.KindReceive:
				switch msgBase(ev.Detail) {
				case "Commit", "Abort", "OutcomeCommit", "OutcomeAbort":
					return true
				}
			case trace.KindSend:
				switch msgBase(ev.Detail) {
				case "VoteNo", "VoteReadOnly":
					return true
				}
			case trace.KindLogWrite:
				switch ev.Detail {
				case "Committed", "Aborted", "Heuristic":
					return true
				}
			}
			return false
		})
		if !ok {
			out = append(out, v.vio("AC5", node, e.Seq,
				"locks released before any local decision point"))
		}
	}
	return out
}
