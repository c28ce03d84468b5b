package core

import (
	"fmt"
	"time"

	"repro/internal/protocol"
)

// txState is the TM-level state of one transaction at one node.
type txState int

const (
	stActive     txState = iota // data exchanged, 2PC not begun
	stPreparing                 // phase one in progress here
	stPrepared                  // subordinate: voted yes, awaiting outcome
	stDelegated                 // coordinator: decision handed to last agent
	stDeciding                  // votes all in, decision being applied
	stCommitting                // outcome logged, awaiting acknowledgments
	stCompleted                 // locally done; may still owe/await an implied ack
	stInDoubt                   // prepared and actively recovering
	stHeurDone                  // completed unilaterally; awaiting the real outcome
)

var stateNames = map[txState]string{
	stActive:     "active",
	stPreparing:  "preparing",
	stPrepared:   "prepared",
	stDelegated:  "delegated",
	stDeciding:   "deciding",
	stCommitting: "committing",
	stCompleted:  "completed",
	stInDoubt:    "in-doubt",
	stHeurDone:   "heuristic-done",
}

func (s txState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// subInfo tracks one downstream partner of this node in one
// transaction.
type subInfo struct {
	id          protocol.NodeID
	activeInTx  bool // data exchanged this transaction
	prepareSent bool
	voted       bool
	vote        protocol.VoteValue
	reliable    bool
	okToLeave   bool
	unsolicited bool
	isLastAgent bool
	ackExpected bool
	acked       bool
	longLocks   bool // we asked this sub for the long-locks variation
	attempts    int  // phase-two re-contact attempts
}

// txCtx is the per-node protocol state of one transaction.
type txCtx struct {
	id    protocol.TxID
	state txState

	isRoot      bool
	coord       protocol.NodeID // upstream partner ("" while root or unknown)
	haveCoord   bool
	subs        map[protocol.NodeID]*subInfo
	subOrder    []protocol.NodeID
	resources   []protocol.Resource
	resVotes    []protocol.PrepareResult
	myHeuristic *protocol.HeuristicReport // local unilateral decision, if any

	votesPending int
	acksPending  int

	decided        bool
	decisionCommit bool

	// Vote attributes aggregated from LRMs and subs.
	allReadOnly bool
	allReliable bool
	allLeaveOut bool

	votedReliable bool // the vote this node sent upstream carried Reliable

	// Upstream expectations.
	longLocksAsked  bool // our coordinator wants the long-locks ack
	lastAgentAsked  bool // we are the last agent: we own the decision
	votedReadOnly   bool
	awaitingImplied bool // END deferred until implied ack (or session close)
	impliedFrom     protocol.NodeID

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
	anyNo             bool
	localPrepared     bool
	delegationPlanned bool
	trigger           trigger
	firstContact      protocol.NodeID
	firstContactSet   bool

	// Logging bookkeeping.
	loggedAny       bool
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
		c = &txCtx{id: id, subs: make(map[protocol.NodeID]*subInfo), allReadOnly: true, allReliable: true, allLeaveOut: true}
		n.txs[id] = c
	}
	return c
}

func (c *txCtx) sub(id protocol.NodeID) *subInfo {
	s, ok := c.subs[id]
	if !ok {
		s = &subInfo{id: id}
		c.subs[id] = s
		c.subOrder = append(c.subOrder, id)
	}
	return s
}

// orderedSubs returns subs in first-contact order for deterministic
// message sequences.
func (c *txCtx) orderedSubs() []*subInfo {
	out := make([]*subInfo, 0, len(c.subOrder))
	for _, id := range c.subOrder {
		out = append(out, c.subs[id])
	}
	return out
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
	s := c.sub(to)
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
	if !ok || (!c.haveCoord && !c.firstContactSet) {
		return fmt.Errorf("core: %s cannot vote unsolicited for %s: no coordinator known", node, t.id)
	}
	n.startSubordinatePhase1(c, unsolicitedTrigger)
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
