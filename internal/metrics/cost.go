// Protocol cost accounting: the per-transaction ledger behind the
// runtime conformance audit (internal/audit).
//
// The paper's evaluation is an accounting argument — message flows
// and forced vs non-forced log writes per protocol variant (Tables
// 1-4). Registry's plain counters aggregate those quantities per
// node; the cost ledger here keeps them per *transaction*, split by
// the role each node played (coordinator or subordinate) and tagged
// with the variant and outcome, so live counts can be compared
// transaction by transaction against the closed forms in
// internal/analytic.
//
// Attribution happens on the hot path (every send and every log
// write), so the recording methods fold the cost update into the same
// critical section as the existing per-node counters (FlowSent,
// TxLogWrite) instead of taking the registry lock twice.
package metrics

import (
	"slices"
	"sort"
	"strings"
)

// Role is the part a node played in one transaction.
type Role int

// Roles. RoleUnknown marks nodes whose costs were observed before any
// role registration — the audit skips exact checks on them.
const (
	RoleUnknown Role = iota
	RoleCoordinator
	RoleSubordinate
	// RoleReadOnly is a subordinate that voted read-only and dropped
	// out of phase two (§4 Read-Only).
	RoleReadOnly
	// RoleAcceptorSub is a Paxos Commit subordinate that also hosts an
	// acceptor: it additionally forces the acceptance bundle and sends
	// the acknowledgment, so its exact cost form differs from a plain
	// subordinate's.
	RoleAcceptorSub
)

// String returns a lowercase role name for metric labels.
func (r Role) String() string {
	switch r {
	case RoleCoordinator:
		return "coordinator"
	case RoleSubordinate:
		return "subordinate"
	case RoleReadOnly:
		return "readonly"
	case RoleAcceptorSub:
		return "acceptor"
	default:
		return "unknown"
	}
}

// CostCounters is one node's protocol spend on one transaction.
type CostCounters struct {
	// Flows counts first-transmission protocol messages — the paper's
	// unit. Retransmissions, duplicate replies, and recovery traffic
	// go to Extra instead, so Flows stays comparable to the closed
	// forms even on runs with retries.
	Flows int
	// Extra counts the sends excluded from Flows: retransmissions,
	// duplicate answers, and recovery inquiries/replies.
	Extra int
	// Piggybacked counts the subset of Flows+Extra that rode a wire
	// packet another message opened (flow coalescing): they cost no
	// packet of their own.
	Piggybacked int
	// Forced and NonForced split the node's log writes for the
	// transaction.
	Forced    int
	NonForced int
}

// Add returns the element-wise sum.
func (c CostCounters) Add(o CostCounters) CostCounters {
	return CostCounters{
		Flows:       c.Flows + o.Flows,
		Extra:       c.Extra + o.Extra,
		Piggybacked: c.Piggybacked + o.Piggybacked,
		Forced:      c.Forced + o.Forced,
		NonForced:   c.NonForced + o.NonForced,
	}
}

// Writes is the node's total log writes (forced + non-forced).
func (c CostCounters) Writes() int { return c.Forced + c.NonForced }

// txCost is the ledger entry for one transaction.
type txCost struct {
	tx      string
	variant string // coordinator's variant ("PA", "PN", ...); first writer wins
	subs    int    // coordinator-declared subordinate count (-1: unknown)
	// delivered is how many subordinates the coordinator actually sent
	// the outcome to (read-only voters drop out); -1 until reported.
	delivered int
	// coordReadOnly: the coordinator's own resources voted read-only.
	coordReadOnly bool
	outcome       string // "committed", "aborted", ...; "" while undecided
	// nodes is a handful of entries (the transaction's tree as seen by
	// this registry), so lookup is a linear scan. A drained entry's
	// views alias this slice.
	nodes  []NodeCostView
	undone int  // nodes not yet done
	seq    int  // insertion order, for eviction when nothing is closed
	queued bool // on the registry's close-order queue
}

// closed reports whether the entry's accounting is complete: every
// observed node has finished its part, and an outcome is recorded or
// needs none (readOnlyOnly).
func (tc *txCost) closed() bool {
	return tc.undone == 0 && (tc.outcome != "" || readOnlyOnly(tc.nodes))
}

// readOnlyOnly reports whether every node is a read-only voter: one
// left the transaction at its vote and never learns the outcome, so an
// entry of only such nodes closes without one (§4 Read Only).
func readOnlyOnly(nodes []NodeCostView) bool {
	for _, n := range nodes {
		if n.Role != RoleReadOnly {
			return false
		}
	}
	return len(nodes) > 0
}

// TxCostView is the exported form of one transaction's ledger entry.
// Its Nodes are sorted by name. A view from CostDrainClosed aliases
// the drained entry, which the ledger no longer holds; a view from
// CostSnapshot is a copy.
type TxCostView struct {
	Tx        string
	Variant   string
	Subs      int // coordinator-declared subordinate count; -1 unknown
	Delivered int // outcome deliveries from the coordinator; -1 unknown
	// CoordReadOnly says the coordinator's own resources voted
	// read-only: with no delivery it wrote no commit record.
	CoordReadOnly bool
	Outcome       string
	Nodes         []NodeCostView
}

// NodeCostView is one node's share of a TxCostView.
type NodeCostView struct {
	Name string
	Role Role
	Done bool // the node finished its part (exact checks apply)
	CostCounters
}

// Node returns the named node's share, or the zero view when the
// transaction has no entry for it.
func (v TxCostView) Node(name string) NodeCostView {
	for _, n := range v.Nodes {
		if n.Name == name {
			return n
		}
	}
	return NodeCostView{}
}

// Closed reports whether the transaction's accounting is complete in
// this registry: every observed node has finished its part, and an
// outcome is recorded or, the nodes all being read-only voters, needs
// none.
func (v TxCostView) Closed() bool {
	for _, n := range v.Nodes {
		if !n.Done {
			return false
		}
	}
	return v.Outcome != "" || readOnlyOnly(v.Nodes)
}

// Total sums all nodes' counters.
func (v TxCostView) Total() CostCounters {
	var t CostCounters
	for _, n := range v.Nodes {
		t = t.Add(n.CostCounters)
	}
	return t
}

// costCap bounds the ledger: beyond it, recording a new transaction
// evicts the oldest closed entry (or the oldest entry outright if
// nothing is closed — accounting is an observability plane, never a
// correctness dependency).
const costCap = 1 << 16

func (r *Registry) txCostLocked(tx string) *txCost {
	if r.costs == nil {
		r.costs = make(map[string]*txCost)
	}
	tc, ok := r.costs[tx]
	if !ok {
		if len(r.costs) >= costCap {
			r.evictCostLocked()
		}
		tc = &txCost{tx: tx, subs: -1, delivered: -1, seq: r.costSeq}
		r.costSeq++
		r.costs[tx] = tc
	}
	return tc
}

// queueIfClosedLocked puts a just-closed entry on the close-order
// queue. An entry a later node reopens stays queued; the drain skips
// it and it is queued again when it closes again.
func (r *Registry) queueIfClosedLocked(tc *txCost) {
	if !tc.queued && tc.closed() {
		tc.queued = true
		r.costDone = append(r.costDone, tc)
	}
}

// evictCostLocked drops the entry that closed first, or the oldest
// entry of all when none is closed.
func (r *Registry) evictCostLocked() {
	for len(r.costDone) > 0 {
		tc := r.costDone[0]
		r.costDone[0] = nil
		r.costDone = r.costDone[1:]
		tc.queued = false
		if tc.closed() && r.costs[tc.tx] == tc {
			delete(r.costs, tc.tx)
			return
		}
	}
	var victim *txCost
	for _, tc := range r.costs {
		if victim == nil || tc.seq < victim.seq {
			victim = tc
		}
	}
	if victim != nil {
		delete(r.costs, victim.tx)
	}
}

func (tc *txCost) node(name string) *NodeCostView {
	for i := range tc.nodes {
		if tc.nodes[i].Name == name {
			return &tc.nodes[i]
		}
	}
	tc.nodes = append(tc.nodes, NodeCostView{Name: name})
	tc.undone++
	return &tc.nodes[len(tc.nodes)-1]
}

// CostBegin registers node as tx's coordinator under the given
// variant with subs subordinates. Costs observed before CostBegin
// (e.g. an unsolicited vote) are kept and re-attributed.
func (r *Registry) CostBegin(tx, node, variant string, subs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tc := r.txCostLocked(tx)
	tc.variant = variant
	tc.subs = subs
	tc.node(node).Role = RoleCoordinator
}

// CostSub registers node as a subordinate of tx. variant is the
// coordinator's variant as announced on the Prepare (it wins over any
// local configuration); readOnly marks a read-only voter.
func (r *Registry) CostSub(tx, node, variant string, readOnly bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tc := r.txCostLocked(tx)
	if tc.variant == "" {
		tc.variant = variant
	}
	nc := tc.node(node)
	if readOnly {
		nc.Role = RoleReadOnly
	} else if nc.Role != RoleCoordinator && nc.Role != RoleAcceptorSub {
		nc.Role = RoleSubordinate
	}
}

// CostMembership records tx's subordinate count as learned away from
// the coordinator: a Paxos Prepare carries the full membership, and
// the audit's Paxos closed forms need it in every daemon's ledger,
// not only the coordinator's. A count the coordinator already
// declared wins.
func (r *Registry) CostMembership(tx string, subs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tc := r.txCostLocked(tx)
	if tc.subs < 0 && subs >= 0 {
		tc.subs = subs
	}
}

// CostAcceptor upgrades node to a Paxos acceptor-subordinate of tx
// (a coordinator keeps its coordinator role — its closed form already
// includes the colocated acceptor's spend).
func (r *Registry) CostAcceptor(tx, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nc := r.txCostLocked(tx).node(node)
	if nc.Role != RoleCoordinator {
		nc.Role = RoleAcceptorSub
	}
}

// CostOutcome records tx's global outcome ("committed", "aborted")
// and, from the coordinator, how many subordinates were sent the
// outcome message (pass -1 from non-coordinators).
func (r *Registry) CostOutcome(tx, outcome string, delivered int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tc := r.txCostLocked(tx)
	tc.outcome = outcome
	if delivered >= 0 {
		tc.delivered = delivered
	}
	r.queueIfClosedLocked(tc)
}

// CostCoordReadOnly records that tx's coordinator's own resources
// voted read-only.
func (r *Registry) CostCoordReadOnly(tx string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.txCostLocked(tx).coordReadOnly = true
}

// CostNodeDone marks node's part in tx finished: its counters are
// final and the audit may apply exact conformance checks to them.
func (r *Registry) CostNodeDone(tx, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tc := r.txCostLocked(tx)
	if nc := tc.node(node); !nc.Done {
		nc.Done = true
		tc.undone--
	}
	r.queueIfClosedLocked(tc)
}

// FlowSent records one protocol message leaving node for tx, folding
// the per-node counters (MessageSent + PacketSent) and the per-tx
// cost ledger into one critical section. piggybacked marks a message
// that rode an existing packet; extra marks retransmissions,
// duplicate answers, and recovery traffic; protocolPkt mirrors
// PacketSent's protocol flag.
func (r *Registry) FlowSent(node, tx string, piggybacked, extra, protocolPkt bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.node(node)
	c.MessagesSent++
	if !piggybacked {
		c.PacketsSent++
	}
	if protocolPkt {
		c.ProtocolPackets++
	}
	if tx == "" {
		return
	}
	if extra {
		// Extras are excluded from conformance, and an extra can name a
		// transaction this node never otherwise tracks — an inquiry
		// answered by presumption, a duplicate for a forgotten tx. A
		// lazily created entry for one would never record an outcome
		// and leak in the ledger, so attribute extras only to
		// transactions already present.
		tc, ok := r.costs[tx]
		if !ok {
			return
		}
		nc := tc.node(node)
		nc.Extra++
		if piggybacked {
			nc.Piggybacked++
		}
		return
	}
	nc := r.txCostLocked(tx).node(node)
	if nc.Done && nc.Role == RoleReadOnly {
		// A read-only voter's vote is its only flow (§4 Read Only). It
		// forgot the transaction at its vote, so a retransmitted Prepare
		// finds nothing there and is answered as new: the answer is a
		// duplicate.
		nc.Extra++
	} else {
		nc.Flows++
	}
	if piggybacked {
		nc.Piggybacked++
	}
}

// TxLogWrite records a log write at node attributed to tx, folding
// LogWrite and the cost ledger into one critical section.
func (r *Registry) TxLogWrite(node, tx string, forced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.node(node)
	c.LogWrites++
	if forced {
		c.ForcedWrites++
	}
	if tx == "" {
		return
	}
	nc := r.txCostLocked(tx).node(node)
	if forced {
		nc.Forced++
	} else {
		nc.NonForced++
	}
}

// view renders tc with the given nodes, sorted by name in place.
func (tc *txCost) view(nodes []NodeCostView) TxCostView {
	slices.SortFunc(nodes, func(a, b NodeCostView) int { return strings.Compare(a.Name, b.Name) })
	return TxCostView{
		Tx:            tc.tx,
		Variant:       tc.variant,
		Subs:          tc.subs,
		Delivered:     tc.delivered,
		CoordReadOnly: tc.coordReadOnly,
		Outcome:       tc.outcome,
		Nodes:         nodes,
	}
}

// CostSnapshot returns a copy of every transaction in the cost
// ledger, in recording order.
func (r *Registry) CostSnapshot() []TxCostView {
	r.mu.Lock()
	defer r.mu.Unlock()
	tcs := make([]*txCost, 0, len(r.costs))
	for _, tc := range r.costs {
		tcs = append(tcs, tc)
	}
	sort.Slice(tcs, func(i, j int) bool { return tcs[i].seq < tcs[j].seq })
	out := make([]TxCostView, len(tcs))
	for i, tc := range tcs {
		out[i] = tc.view(slices.Clone(tc.nodes))
	}
	return out
}

// CostDrainClosed removes and returns every closed transaction (see
// TxCostView.Closed) from the ledger, in the order they closed. The
// conformance audit consumes the ledger through this so a
// long-running process holds only in-flight transactions. Under the
// registry lock it only takes over the close-order queue. The views
// are built after, in place: each aliases its entry, which no other
// caller can reach any more, so a drained batch costs one slice of
// views however many nodes its entries hold.
func (r *Registry) CostDrainClosed() []TxCostView {
	r.mu.Lock()
	queue := r.costDone
	// Size the next queue for a batch like this one, so the closes
	// between two drains append without regrowing it.
	r.costDone = make([]*txCost, 0, len(queue))
	n := 0
	for _, tc := range queue {
		tc.queued = false
		// Skip entries a later node reopened (they queue again when
		// they close) and entries eviction already dropped.
		if !tc.closed() || r.costs[tc.tx] != tc {
			continue
		}
		delete(r.costs, tc.tx)
		queue[n] = tc
		n++
	}
	r.mu.Unlock()
	out := make([]TxCostView, n)
	for i, tc := range queue[:n] {
		out[i] = tc.view(tc.nodes)
	}
	return out
}

// CostLedgerSize reports how many transactions the ledger currently
// holds.
func (r *Registry) CostLedgerSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.costs)
}

// AggregateCostKey labels one bucket of AggregateCosts.
type AggregateCostKey struct {
	Variant string
	Role    Role
	Outcome string
}

// AggregateCosts folds the ledger into per-(variant, role, outcome)
// totals plus a transaction count per bucket — the shape the
// /metrics endpoint exports. Transactions with no outcome yet
// aggregate under Outcome "open", and closed ones whose nodes never
// learn it (read-only voters) under "unknown".
func AggregateCosts(views []TxCostView) map[AggregateCostKey]struct {
	Counters CostCounters
	Nodes    int
} {
	out := make(map[AggregateCostKey]struct {
		Counters CostCounters
		Nodes    int
	})
	for _, v := range views {
		outcome := v.Outcome
		switch {
		case outcome != "":
		case v.Closed():
			outcome = "unknown"
		default:
			outcome = "open"
		}
		for _, nc := range v.Nodes {
			k := AggregateCostKey{Variant: v.Variant, Role: nc.Role, Outcome: outcome}
			agg := out[k]
			agg.Counters = agg.Counters.Add(nc.CostCounters)
			agg.Nodes++
			out[k] = agg
		}
	}
	return out
}
