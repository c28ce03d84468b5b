package core

import (
	"fmt"
	"time"

	"repro/internal/protocol"
)

// subInfo tracks one downstream partner of this node in one
// transaction; its vote and ack are the round's (txCtx.round).
type subInfo struct {
	id         protocol.NodeID
	activeInTx bool             // data exchanged this transaction
	early      protocol.Message // a vote it volunteered before this node's phase one
	reliable   bool
	okToLeave  bool
	longLocks  bool // we asked this sub for the long-locks variation
	attempts   int  // phase-two re-contact attempts
}

// txCtx is the per-node protocol state of one transaction. Its phase
// is read from its round and its sub (active, preparing, inDoubt,
// completed); myHeuristic marks a unilateral completion awaiting the
// real outcome.
type txCtx struct {
	id protocol.TxID

	isRoot      bool
	coord       protocol.NodeID // upstream partner ("" while root or unknown)
	subs        map[protocol.NodeID]*subInfo
	subOrder    []protocol.NodeID
	myHeuristic *protocol.HeuristicReport // local unilateral decision, if any

	// round is this node's tally of its subtree (protocol.Coord): the
	// votes, the decision's recipients and the acks owed. Its Logged
	// says the node wrote a record for the transaction.
	round protocol.Coord
	// sub is this node's own part (protocol.Sub): prepared once it
	// votes yes upstream, done once the outcome is taken here.
	sub protocol.Sub

	// Vote attributes aggregated from LRMs and subs.
	allReliable bool
	allLeaveOut bool

	votedReliable bool // the vote this node sent upstream carried Reliable

	// Upstream expectations.
	longLocksAsked  bool // our coordinator wants the long-locks ack
	lastAgentAsked  bool // we are the last agent: we own the decision
	awaitingImplied bool // END deferred until the coordinator's implied ack (or session close)

	// Root bookkeeping.
	onComplete   func(Result)
	completedApp bool
	startAt      time.Duration
	status       AckStatus

	// Timer generations: a stale timer event compares its generation
	// and does nothing.
	ackTimerGen  int
	heurTimerGen int

	lastAgentChoice protocol.NodeID // script-designated last agent ("" = auto)

	// Phase-one bookkeeping.
	localPrepared bool
	ask           protocol.Ask    // what asked for this node's vote
	firstContact  protocol.NodeID // the partner whose data brought this node in ("" for none)

	// Logging bookkeeping.
	pnPendingLogged bool
	pnPendingAgent  protocol.NodeID

	ackSent         bool
	voteTimerGen    int
	inquiryAttempts int

	// Paxos Commit state (VariantPaxos only; nil otherwise).
	pax *paxosCtx

	// abortErr, when set, is the reason an abort decision was taken on
	// the coordinator's own initiative (e.g. a vote timeout); it is
	// surfaced on the initiator's Result so callers can errors.Is
	// against the shared txerr sentinels.
	abortErr error
}

func (n *Node) ctx(id protocol.TxID) *txCtx {
	c, ok := n.txs[id]
	if !ok {
		c = &txCtx{id: id, subs: make(map[protocol.NodeID]*subInfo), allReliable: true, allLeaveOut: true}
		c.round.Variant = n.eng.cfg.Variant
		c.sub.Presume = n.eng.cfg.Variant
		c.round.OnePhaseLazyDecision = n.eng.cfg.Hooks.OnePhaseLazyDecision
		n.txs[id] = c
	}
	return c
}

// outcomeOf is the outcome s took here, OutcomeUnknown while none.
func outcomeOf(s protocol.Sub) Outcome {
	switch {
	case !s.Done:
		return OutcomeUnknown
	case s.Committed:
		return OutcomeCommitted
	}
	return OutcomeAborted
}

// active reports whether c is untouched by the commit protocol here:
// no phase one opened, no vote, no outcome.
func (c *txCtx) active() bool {
	return !c.round.Asked() && !c.sub.Prepared && !c.sub.Done && c.myHeuristic == nil
}

// preparing reports whether c's phase one is open here.
func (c *txCtx) preparing() bool {
	return c.round.Asked() && !c.sub.Prepared && !c.round.Delegated() && !c.sub.Done
}

// inDoubt reports whether the node holds c prepared, or delegated,
// with no outcome and no unilateral decision.
func (c *txCtx) inDoubt() bool {
	return (c.sub.Prepared || c.round.Delegated()) && !c.sub.Done && c.myHeuristic == nil
}

// completed reports whether c, decided and acked, awaits only an
// implied ack.
func (c *txCtx) completed() bool { return c.awaitingImplied && c.round.Owed() == 0 }

func (c *txCtx) partner(id protocol.NodeID) *subInfo {
	s, ok := c.subs[id]
	if !ok {
		s = &subInfo{id: id}
		c.subs[id] = s
		c.subOrder = append(c.subOrder, id)
	}
	return s
}

// Tx is a script handle for building and committing one distributed
// transaction on an engine.
type Tx struct {
	eng *Engine
	id  protocol.TxID
}

// ID returns the transaction's identifier.
func (t *Tx) ID() protocol.TxID { return t.id }

// Begin starts a new transaction whose work originates at origin.
func (e *Engine) Begin(origin protocol.NodeID) *Tx {
	n := e.nodes[origin]
	if n == nil {
		panic(fmt.Sprintf("core: Begin at unknown node %q", origin))
	}
	t := &Tx{eng: e, id: e.nextTxID(origin)}
	// The origin joins its own transaction immediately.
	n.ctx(t.id)
	return t
}

// Send transmits application data from one node to another within the
// transaction, establishing the commit-tree edge if it is new (the
// receiver becomes a subordinate of the sender unless it already has
// a coordinator for this transaction). A dormant (left-out) partner
// is woken by the data. The call is synchronous: the engine drains
// the delivery before returning.
func (t *Tx) Send(from, to protocol.NodeID, payload string) error {
	n := t.eng.nodes[from]
	dst := t.eng.nodes[to]
	if n == nil || dst == nil {
		return fmt.Errorf("%w: %s or %s", ErrUnknownNode, from, to)
	}
	if n.crashed {
		return fmt.Errorf("%w: %s", ErrCrashed, from)
	}
	c := n.ctx(t.id)
	s := c.partner(to)
	s.activeInTx = true
	l := n.link(to)
	l.established = true
	l.dormant = false
	n.send(to, protocol.Message{Type: protocol.MsgData, Tx: t.id.String(), Payload: []byte(payload)})
	t.eng.settle()
	return nil
}

// UnsolicitedVote makes node prepare itself spontaneously and send
// its vote to its coordinator without waiting for a Prepare message
// (§4 Unsolicited Vote). The node must already be in the transaction
// and know its coordinator (it received data from it).
func (t *Tx) UnsolicitedVote(node protocol.NodeID) error {
	n := t.eng.nodes[node]
	if n == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	c, ok := n.txs[t.id]
	if !ok || c.coord == "" && c.firstContact == "" {
		return fmt.Errorf("core: %s cannot vote unsolicited for %s: no coordinator known", node, t.id)
	}
	n.startSubordinatePhase1(c, protocol.Volunteered)
	t.eng.settle()
	return nil
}

// SetLastAgent designates which subordinate of node should receive
// the last-agent delegation when the LastAgent option is enabled.
func (t *Tx) SetLastAgent(node, agent protocol.NodeID) {
	n := t.eng.nodes[node]
	if n == nil {
		panic(fmt.Sprintf("core: unknown node %q", node))
	}
	n.ctx(t.id).lastAgentChoice = agent
}

// Pending is an in-flight commit operation started with CommitAsync.
type Pending struct {
	res  Result
	done bool
}

// Result returns the application's view of the commit outcome. Done
// reports whether the application has regained control yet.
func (p *Pending) Result() (Result, bool) { return p.res, p.done }

// CommitAsync initiates commit processing at node and returns without
// draining the event queue; callers drive the engine with Drain or
// Step and read the Pending afterwards. Chained-transaction scripts
// (Long Locks) need this form, because completion can depend on later
// transactions' data.
func (t *Tx) CommitAsync(at protocol.NodeID) *Pending {
	n := t.eng.nodes[at]
	if n == nil {
		panic(fmt.Sprintf("core: CommitAsync at unknown node %q", at))
	}
	p := &Pending{}
	t.eng.queue.push(n.localTime, at, func() {
		if n.crashed {
			p.res = Result{Outcome: OutcomeUnknown, Err: ErrCrashed}
			p.done = true
			return
		}
		if n.suspendedByLeaveOut() {
			p.res = Result{Outcome: OutcomeAborted, Err: ErrSuspended}
			p.done = true
			return
		}
		n.initiateCommit(t.id, func(r Result) {
			p.res = r
			p.done = true
		})
	})
	return p
}

// Commit initiates commit processing at node, runs the simulation to
// quiescence, and returns the application's result. If the
// application never regains control (a blocked protocol, e.g.
// baseline 2PC with an amnesiac coordinator), the result carries
// ErrIncomplete.
func (t *Tx) Commit(at protocol.NodeID) Result {
	p := t.CommitAsync(at)
	t.eng.Drain()
	if !p.done {
		return Result{Outcome: OutcomePending, Err: ErrIncomplete}
	}
	return p.res
}

// Abort aborts the transaction from node: every participant discards
// its effects.
func (t *Tx) Abort(at protocol.NodeID) Result {
	n := t.eng.nodes[at]
	if n == nil {
		panic(fmt.Sprintf("core: Abort at unknown node %q", at))
	}
	p := &Pending{}
	t.eng.queue.push(n.localTime, at, func() {
		if n.crashed {
			p.res = Result{Outcome: OutcomeUnknown, Err: ErrCrashed}
			p.done = true
			return
		}
		n.initiateAbort(t.id, func(r Result) {
			p.res = r
			p.done = true
		})
	})
	t.eng.Drain()
	if !p.done {
		return Result{Outcome: OutcomePending, Err: ErrIncomplete}
	}
	return p.res
}

// suspendedByLeaveOut reports whether this node previously voted
// OK-to-leave-out and was left dormant: such a node is suspended and
// may not initiate work until its coordinator sends it data.
func (n *Node) suspendedByLeaveOut() bool {
	for _, l := range n.links {
		if l.dormant && l.weAreSuspended {
			return true
		}
	}
	return false
}
