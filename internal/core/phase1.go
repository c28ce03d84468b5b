package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/protocol"
	"repro/internal/txerr"
)

// handleData processes application data: it establishes the
// conversation edge, wakes dormant partners, and serves as the
// implied acknowledgment for completed transactions awaiting one.
func (n *Node) handleData(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c := n.ctx(tx)
	s := c.partner(from)
	s.activeInTx = true
	l := n.link(from)
	l.established = true
	l.dormant = false
	l.weAreSuspended = false
	if c.firstContact == "" {
		c.firstContact = from
	}
	// Any data from a partner is an implied ack for transactions that
	// were awaiting one from that partner (§4 Last Agent, Figure 6).
	n.processImpliedAck(from)
}

// processImpliedAck completes transactions at this node that were
// holding their END record until the given partner demonstrated, by
// sending more data, that it received our last commit message.
func (n *Node) processImpliedAck(from protocol.NodeID) {
	for _, c := range n.snapshotTxs() {
		if c.completed() && c.coord == from {
			n.trcApp("implied ack from " + string(from) + " (" + c.id.String() + ")")
			n.writeEndAndForget(c)
		}
	}
}

// initiateCommit makes this node the root coordinator of tx's commit.
func (n *Node) initiateCommit(tx protocol.TxID, done func(Result)) {
	c := n.ctx(tx)
	if !c.active() {
		// A second initiation for the same transaction at the same
		// node: report failure to the second caller.
		done(Result{Outcome: OutcomeAborted, Err: ErrIncomplete})
		return
	}
	c.isRoot = true
	c.onComplete = done
	c.startAt = n.localTime
	n.trcState(tx, "commit-initiated")

	members := n.phase1Members(c)
	if n.eng.cfg.Variant == protocol.VariantPaxos {
		// Paxos Commit: no pre-force — the acceptor quorum, not this
		// node's log, is the durable decision state.
		n.runPaxosPhase1(c, members)
		return
	}
	n.runPhase1(c, members)
}

// initiateAbort backs the Tx.Abort script call: the whole tree
// discards the transaction. Abort initiation needs no voting phase.
func (n *Node) initiateAbort(tx protocol.TxID, done func(Result)) {
	c := n.ctx(tx)
	c.isRoot = true
	c.onComplete = done
	c.startAt = n.localTime
	n.trcState(tx, "abort-initiated")
	// They never voted; they are notified and (baseline/PN) ack.
	n.begin(c, n.phase1Members(c), "")
	n.ownDecision(c, false)
}

// phase1Members computes the partners this node must include in the
// commit operation: everyone it exchanged data with this transaction,
// plus every established session partner that is not dormant — the
// peer-to-peer model cannot assume an idle partner did nothing unless
// it was explicitly left out (§4 Leaving Inactive Partners Out).
func (n *Node) phase1Members(c *txCtx) []*subInfo {
	for peer, l := range n.links {
		if l.established && !l.dormant && peer != c.coord {
			c.partner(peer)
		}
	}
	var out []*subInfo
	for _, id := range c.subOrder { // first-contact order, for deterministic sequences
		s := c.subs[id]
		if id == c.coord || n.link(id).dormant && !s.activeInTx {
			continue // the coordinator, or left out
		}
		out = append(out, s)
	}
	return out
}

// begin starts c's round (protocol.Coord) over members, agent held out
// for the delegation, with the votes they volunteered before it.
func (n *Node) begin(c *txCtx, members []*subInfo, agent protocol.NodeID) protocol.LogRecord {
	pre := c.round.Begin(n.eng.cfg.Variant, memberIDs(members), string(agent))
	for _, s := range members {
		if s.early.Type == protocol.MsgVote {
			c.round.Vote(string(s.id), &s.early)
		}
	}
	return pre
}

// runPhase1 drives the voting phase at a node that owns (or will own)
// the decision or votes upstream: the pre-prepare record of a node with
// a subtree (Figure 3), Prepares in parallel, its own resources, then
// checkVotes.
func (n *Node) runPhase1(c *txCtx, members []*subInfo) {
	pre := n.begin(c, members, n.chooseLastAgent(c, members))
	if pre.Kind != "" && (len(members) > 0 || c.isRoot && len(n.resources) > 0) {
		if !c.isRoot {
			pre.Coord = string(c.coord)
		} else if n.eng.cfg.Options.LastAgent && len(members) == 1 && (c.lastAgentChoice == "" || c.lastAgentChoice == members[0].id) {
			// Single-partner last-agent case, known at initiation (the
			// fast path the paper motivates Last Agent with): the pending
			// record also covers the delegation (delegate forces no
			// Prepared).
			pre.Agent, pre.Presume = string(members[0].id), c.round.Variant
			c.pnPendingAgent = members[0].id
		}
		n.logTx(c, pre, true)
		c.pnPendingLogged = true
	}
	c.round.Ask()
	for i, id := range c.round.Subs {
		if c.round.Silent(i) {
			n.send(protocol.NodeID(id), protocol.Message{
				Type:      protocol.MsgPrepare,
				Tx:        c.id.String(),
				LongLocks: n.eng.cfg.Options.LongLocks,
			})
		}
	}
	if c.round.Pending() > 0 {
		n.armVoteTimer(c)
	}
	n.prepareLocal(c)
	n.checkVotes(c)
}

// armVoteTimer bounds phase one: a subordinate that never answers the
// Prepare is presumed failed — its vote a no, so it is not told the
// abort — and the transaction aborts.
func (n *Node) armVoteTimer(c *txCtx) {
	c.voteTimerGen++
	gen := c.voteTimerGen
	n.afterTx(c, n.eng.cfg.VoteTimeout, func(at time.Duration) {
		if c.voteTimerGen != gen || !c.preparing() || c.round.Pending() == 0 {
			return
		}
		n.eng.arriveAt(n, at)
		n.trcApp("vote timeout: presuming failed subordinate(s), aborting " + c.id.String())
		c.abortErr = fmt.Errorf("core: vote collection: %w", txerr.ErrTimeout)
		no := protocol.Message{Type: protocol.MsgVote, Vote: protocol.VoteNo}
		for i, id := range c.round.Subs {
			if c.round.Silent(i) {
				c.round.Vote(id, &no)
			}
		}
		n.checkVotes(c)
	})
}

// chooseLastAgent picks the member to delegate to, if the option is on
// and this node owns the decision: the designated one, or else the last
// in contact order (the paper prepares close partners first and leaves
// the distant one for the single round trip); none that volunteered.
func (n *Node) chooseLastAgent(c *txCtx, members []*subInfo) protocol.NodeID {
	if !n.eng.cfg.Options.LastAgent || len(members) == 0 || !c.isRoot && !c.lastAgentAsked {
		return ""
	}
	la := members[len(members)-1]
	if c.lastAgentChoice != "" {
		la = nil
		for _, s := range members {
			if s.id == c.lastAgentChoice {
				la = s
			}
		}
	}
	if la == nil || la.early.Type == protocol.MsgVote {
		return ""
	}
	return la.id
}

// prepareLocal prepares the node's resources (protocol.PrepareAll) for
// the round; with read-only votes off, read-only counts as yes.
func (n *Node) prepareLocal(c *txCtx) {
	vote := protocol.VoteReadOnly
	if len(n.resources) > 0 {
		res := protocol.PrepareAll(n.resources, c.id)
		vote = res.Vote
		c.allReliable = c.allReliable && res.Reliable
		c.allLeaveOut = c.allLeaveOut && res.OKToLeaveOut
	}
	if vote == protocol.VoteReadOnly && !n.eng.cfg.Options.ReadOnly {
		vote = protocol.VoteYes
	}
	c.round.Local(vote)
	c.localPrepared = true
}

// handlePrepare begins phase one at a subordinate.
func (n *Node) handlePrepare(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c := n.ctx(tx)
	c.partner(from) // the coordinator is a partner too
	if m.Presume == protocol.VariantPaxos && n.paxos(c).Asked(&m) && c.inDoubt() {
		// Prepared unsolicited before the acceptor membership was
		// known: the late Prepare supplies it; vote now.
		n.paxosCast(c, c.pax.Vote)
		return
	}
	if c.isRoot && c.preparing() {
		if n.eng.cfg.Variant == protocol.VariantPaxos {
			// Dual initiation under Paxos: neither side may abort
			// unilaterally (accepts may exist); the quorum rounds
			// resolve both.
			n.trcState(tx, "dual-initiation (paxos: quorum resolves)")
			return
		}
		// Two participants initiated commit independently: the
		// transaction must abort (§3 PN rules).
		n.trcState(tx, "dual-initiation")
		n.send(from, protocol.Message{Type: protocol.MsgVote, Tx: m.Tx, Vote: protocol.VoteNo})
		n.ownDecision(c, false)
		return
	}
	if !c.active() {
		return // duplicate Prepare
	}
	c.coord = from
	c.longLocksAsked = m.LongLocks
	n.startSubordinatePhase1(c, protocol.Asked)
}

// startSubordinatePhase1 runs phase one at a node that will vote
// upstream (asked, or volunteering: the script called
// Tx.UnsolicitedVote) or owns a delegated decision.
func (n *Node) startSubordinatePhase1(c *txCtx, ask protocol.Ask) {
	if !c.active() {
		return
	}
	c.ask = ask
	if ask == protocol.Volunteered && c.coord == "" {
		// The server's coordinator is the partner that brought it
		// into the transaction.
		c.coord = c.firstContact
	}
	members := n.phase1Members(c)
	if n.eng.cfg.Variant == protocol.VariantPaxos {
		// Flat tree (coordinator plus leaves, as the live fleet runs):
		// a subordinate prepares locally and makes its instance value
		// known to the acceptors instead of voting to the coordinator.
		n.prepareLocal(c)
		n.paxosVoteUpstream(c)
		return
	}
	n.runPhase1(c, members)
}

// handleVote processes a vote arriving at a coordinator (or a
// delegation arriving at a last agent).
func (n *Node) handleVote(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	if n.eng.cfg.Variant == protocol.VariantPaxos {
		// Votes travel as Paxos accepts; a stray MsgVote must never
		// trigger a unilateral (non-quorum) decision.
		return
	}
	if m.LastAgent {
		n.handleDelegation(from, m)
		return
	}
	c, ok := n.txs[tx]
	if !ok {
		return // forgotten transaction: stray vote
	}
	s := c.partner(from)
	active := c.active()
	switch i := slices.Index(c.round.Subs, string(from)); {
	case active && s.early.Type == protocol.MsgVote:
		return // duplicate
	case active:
		s.early = m // volunteered before this node's phase one, which takes it
	case i < 0 || !c.round.Silent(i):
		return // a duplicate, the agent's, or no member's
	default:
		c.round.Vote(string(from), &m)
	}
	s.reliable = m.Reliable
	s.okToLeave = m.OKToLeaveOut
	c.allReliable = c.allReliable && m.Reliable
	c.allLeaveOut = c.allLeaveOut && m.OKToLeaveOut
	n.checkVotes(c)
}

// handleDelegation makes this node the last agent: the sender has
// prepared everything else and hands over the decision (§4 Last
// Agent, Figure 6).
func (n *Node) handleDelegation(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	// A repeated delegation asks for the decision: an agent that took
	// it answers from its state, or from the outcome it remembers (Sub's
	// decided answer); a repeat under presumed abort that finds none
	// may be asking for an abort a restart erased here.
	m.Presume = n.eng.cfg.Variant
	s := n.forgotten(tx)
	if c, ok := n.txs[tx]; ok {
		s = c.sub
	}
	step := s.Delegate(&m)
	if step.Do == protocol.DoReply {
		n.send(from, step.Msg)
		return
	}
	c := n.ctx(tx)
	if !c.active() {
		return
	}
	c.coord = from
	c.lastAgentAsked = true
	if step.Do == protocol.DoDecide {
		n.ownDecision(c, false)
		return
	}
	n.startSubordinatePhase1(c, protocol.Asked)
}

// forgotten is the subordinate part of a transaction the node holds no
// context for: the outcome it remembers, if any.
func (n *Node) forgotten(tx protocol.TxID) protocol.Sub {
	s := protocol.Sub{Presume: n.eng.cfg.Variant}
	if o, ok := n.done[tx]; ok && o != OutcomeUnknown {
		s.Finish(o != OutcomeAborted)
	}
	return s
}

// own is what a simulator node knows beyond its Sub when an outcome
// reaches it: its variant, which is surely its coordinator's, and
// whether it wrote a record for the transaction.
func (n *Node) own(logged bool) protocol.Own {
	return protocol.Own{Variant: n.eng.cfg.Variant, Announced: true, Logged: logged}
}

// checkVotes continues the protocol at the first no, or once every
// expected vote is in.
func (n *Node) checkVotes(c *txCtx) {
	if !c.preparing() || !c.localPrepared {
		return
	}
	owner := c.isRoot || c.lastAgentAsked
	switch next := c.round.Next(); {
	case next == protocol.NextCollect: // a vote is still owed
	case next == protocol.NextDelegate:
		n.delegate(c)
	case !owner:
		n.voteUpstream(c)
	default:
		n.ownDecision(c, next == protocol.NextCommit)
	}
}

// delegate hands the decision to the chosen last agent: the node
// prepares itself (forcing the round's delegation record unless it is
// entirely read-only) and sends its YES vote with the delegation bit.
func (n *Node) delegate(c *txCtx) {
	agent := protocol.NodeID(c.round.Agent())
	// A pre-prepare record naming the agent already covers it.
	if r := c.round.Delegate(); r.Kind != "" && c.pnPendingAgent != agent {
		r.Coord = string(c.coord)
		n.logTx(c, r, true)
	}
	n.trcState(c.id, "delegated to "+string(agent))
	n.send(agent, n.delegation(c, false))
	n.armHeuristic(c) // a delegating coordinator is in doubt like any prepared node
	n.armDelegationWatch(c, agent)
}

// delegation is c's vote to its last agent, carrying the decision
// (read-only: the initiator delegates with nothing to recover, §4);
// repeat marks one sent again because no answer came.
func (n *Node) delegation(c *txCtx, repeat bool) protocol.Message {
	return protocol.Message{Type: protocol.MsgVote, Tx: c.id.String(), LastAgent: true, Repeat: repeat,
		LongLocks: n.eng.cfg.Options.LongLocks, Vote: c.round.Fold()}
}

// voteUpstream casts this subordinate's folded vote — its resources'
// and its subtree's — to its coordinator, as protocol.Sub.Voted asks.
func (n *Node) voteUpstream(c *txCtx) {
	opts := n.eng.cfg.Options
	vote := c.round.Fold()
	yes := c.round.Voters()
	step := c.sub.Voted(c.id.String(), vote, len(yes) == 0, c.ask)
	msg := c.sub.Vote()
	if vote != protocol.VoteNo {
		msg.Reliable = c.allReliable
		msg.OKToLeaveOut = c.allLeaveOut
	}
	switch step.Then {
	case protocol.Aborts:
		// Abort the local subtree; the coordinator will not contact us
		// again (a NO voter needs no outcome message).
		n.send(c.coord, msg)
		n.takeOutcome(c, false, false, protocol.NoWrite)
		return
	case protocol.Leaves:
		// Read-only: no logging, out of phase two, locks released by
		// the resources at their vote (§4 Read Only); the context goes.
		n.send(c.coord, msg)
		n.trcState(c.id, "read-only, released")
		n.trcUnlock(c.id, "released")
		n.forget(c, OutcomeUnknown, false)
		if c.allLeaveOut && opts.LeaveOut {
			n.suspendTowards(c.coord)
		}
		return
	}
	if step.Force.AgentPending && !c.pnPendingLogged {
		n.logTx(c, protocol.LogRecord{Kind: protocol.RecAgentPending, Coord: string(c.coord)}, true)
		c.pnPendingLogged = true
	}
	if step.Force.Prepared {
		n.logTx(c, protocol.LogRecord{Kind: protocol.RecPrepared, Presume: c.sub.Presume, Coord: string(c.coord), Subs: yes}, true)
	}
	c.votedReliable = c.allReliable && opts.VoteReliable
	n.send(c.coord, msg)
	n.armHeuristic(c)
	n.armOutcomeWatch(c)
}

// armOutcomeWatch bounds how long a prepared subordinate waits for
// the outcome before entering in-doubt recovery on its own
// initiative. Without it, a coordinator that crashes after sending
// prepares but before logging anything would leave never-crashed
// subordinates blocked forever: nobody would ever contact them.
func (n *Node) armOutcomeWatch(c *txCtx) {
	n.afterTx(c, 2*n.eng.cfg.AckTimeout, func(at time.Duration) {
		if !c.inDoubt() {
			return
		}
		n.eng.arriveAt(n, at)
		if n.eng.cfg.Variant == protocol.VariantPaxos {
			// Non-blocking: learn the outcome from the acceptor quorum
			// instead of inquiring the (possibly dead) coordinator.
			n.trcState(c.id, "outcome overdue: in doubt, leading paxos recovery")
			n.startPaxosRecovery(c)
			return
		}
		n.trcState(c.id, "outcome overdue: in doubt, inquiring")
		n.scheduleInquiry(c, 0)
	})
}

// armDelegationWatch is the decision-owner analogue of the outcome
// watch: a delegating coordinator that hears nothing back asks its
// agent again by repeating the delegation, the agent owning the
// outcome. An agent that decided answers from its state; one the
// delegation never reached decides now. Inquiring instead would leave
// the latter answering InProgress for good.
func (n *Node) armDelegationWatch(c *txCtx, agent protocol.NodeID) {
	n.afterTx(c, 2*n.eng.cfg.AckTimeout, func(at time.Duration) {
		if !c.inDoubt() {
			return
		}
		n.eng.arriveAt(n, at)
		c.inquiryAttempts++
		if c.inquiryAttempts > 8 {
			n.trcApp("giving up on last agent " + string(agent) + " for " + c.id.String() + " (operator needed)")
			return
		}
		n.trcState(c.id, "delegation answer overdue: asking agent again")
		n.send(agent, n.delegation(c, true))
		n.armDelegationWatch(c, agent)
	})
}

// suspendTowards records that this node promised OK-to-leave-out to
// its coordinator and is now suspended until it receives data again.
func (n *Node) suspendTowards(coord protocol.NodeID) {
	l := n.link(coord)
	l.weAreSuspended = true
	l.dormant = true
	n.trcApp("suspended (ok-to-leave-out) towards " + string(coord))
}

func memberIDs(members []*subInfo) []string {
	out := make([]string, len(members))
	for i, s := range members {
		out[i] = string(s.id)
	}
	return out
}
