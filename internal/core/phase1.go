package core

import (
	"fmt"
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
	s := c.sub(from)
	s.activeInTx = true
	l := n.link(from)
	l.established = true
	l.dormant = false
	l.weAreSuspended = false
	if !c.firstContactSet {
		c.firstContact = from
		c.firstContactSet = true
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
		if c.state == stCompleted && c.awaitingImplied && c.impliedFrom == from {
			n.trcApp("implied ack from " + string(from) + " (" + c.id.String() + ")")
			n.writeEndAndForget(c)
		}
	}
}

// initiateCommit makes this node the root coordinator of tx's commit.
func (n *Node) initiateCommit(tx protocol.TxID, done func(Result)) {
	c := n.ctx(tx)
	if c.state != stActive {
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
	variant := n.eng.cfg.Variant
	if variant == protocol.VariantPaxos {
		// Paxos Commit: no pre-force — the acceptor quorum, not this
		// node's log, is the durable decision state.
		n.runPaxosPhase1(c, members)
		return
	}
	if pre := variant.PrePrepare(); pre != "" && (len(members) > 0 || len(n.resources) > 0) {
		r := protocol.LogRecord{Kind: pre, Subs: memberIDs(members)}
		if agent := n.earlyLastAgent(c, members); agent != "" {
			// Single-partner last-agent case: the pending record also
			// covers the delegation (delegate forces no Prepared).
			r.Agent = string(agent)
			c.pnPendingAgent = agent
		}
		n.logTx(c, r, true)
		c.pnPendingLogged = true
	}
	n.runPhase1(c, members)
}

// earlyLastAgent reports the agent that will receive the delegation
// when it is already known at initiation time (the single-remote-
// partner fast path the paper motivates Last Agent with).
func (n *Node) earlyLastAgent(c *txCtx, members []*subInfo) protocol.NodeID {
	if !n.eng.cfg.Options.LastAgent || len(members) != 1 {
		return ""
	}
	if c.lastAgentChoice != "" && c.lastAgentChoice != members[0].id {
		return ""
	}
	return members[0].id
}

// initiateAbort backs the Tx.Abort script call: the whole tree
// discards the transaction. Abort initiation needs no voting phase.
func (n *Node) initiateAbort(tx protocol.TxID, done func(Result)) {
	c := n.ctx(tx)
	c.isRoot = true
	c.onComplete = done
	c.startAt = n.localTime
	n.trcState(tx, "abort-initiated")
	members := n.phase1Members(c)
	for _, s := range members {
		// They never voted; they are notified and (baseline/PN) ack.
		s.prepareSent = true
	}
	n.ownDecision(c, false)
}

// phase1Members computes the partners this node must include in the
// commit operation: everyone it exchanged data with this transaction,
// plus every established session partner that is not dormant — the
// peer-to-peer model cannot assume an idle partner did nothing unless
// it was explicitly left out (§4 Leaving Inactive Partners Out).
func (n *Node) phase1Members(c *txCtx) []*subInfo {
	for peer, l := range n.links {
		if l.established && !l.dormant && (!c.haveCoord || peer != c.coord) {
			c.sub(peer)
		}
	}
	var out []*subInfo
	for _, s := range c.orderedSubs() {
		if c.haveCoord && s.id == c.coord {
			continue
		}
		if l := n.link(s.id); l.dormant && !s.activeInTx {
			continue // left out
		}
		out = append(out, s)
	}
	return out
}

// runPhase1 drives the voting phase at a node that owns (or will
// own) the decision or must vote upstream: Prepares go out in
// parallel, local resources prepare synchronously, and checkVotes
// continues when everything has answered.
func (n *Node) runPhase1(c *txCtx, members []*subInfo) {
	c.state = stPreparing
	la := n.chooseLastAgent(c, members)
	for _, s := range members {
		if s.isLastAgent || s.voted {
			continue
		}
		s.prepareSent = true
		c.votesPending++
		n.send(s.id, protocol.Message{
			Type:      protocol.MsgPrepare,
			Tx:        c.id.String(),
			LongLocks: n.eng.cfg.Options.LongLocks,
		})
	}
	if la != nil {
		c.delegationPlanned = true
	}
	if c.votesPending > 0 {
		n.armVoteTimer(c)
	}
	n.prepareLocal(c)
	n.checkVotes(c)
}

// armVoteTimer bounds phase one: a subordinate that never answers the
// Prepare is presumed failed and the transaction aborts.
func (n *Node) armVoteTimer(c *txCtx) {
	c.voteTimerGen++
	gen := c.voteTimerGen
	n.afterTx(c, n.eng.cfg.VoteTimeout, func(at time.Duration) {
		if c.voteTimerGen != gen || c.state != stPreparing || c.votesPending == 0 {
			return
		}
		n.eng.arriveAt(n, at)
		n.trcApp("vote timeout: presuming failed subordinate(s), aborting " + c.id.String())
		c.abortErr = fmt.Errorf("core: vote collection: %w", txerr.ErrTimeout)
		for _, s := range c.orderedSubs() {
			if s.prepareSent && !s.voted {
				s.voted = true
				s.vote = protocol.VoteNo
			}
		}
		c.votesPending = 0
		c.anyNo = true
		c.allReadOnly = false
		n.checkVotes(c)
	})
}

// chooseLastAgent picks the member that will receive the delegation,
// if the option is on and this node owns the decision. The designated
// choice wins; otherwise the last member in contact order (the paper
// suggests preparing the close partners first and leaving the distant
// one for the single round trip).
func (n *Node) chooseLastAgent(c *txCtx, members []*subInfo) *subInfo {
	if !n.eng.cfg.Options.LastAgent || !n.eng.cfg.Variant.Delegates() || len(members) == 0 {
		return nil
	}
	if !c.isRoot && !c.lastAgentAsked {
		return nil // only the decision owner may delegate
	}
	var la *subInfo
	if c.lastAgentChoice != "" {
		for _, s := range members {
			if s.id == c.lastAgentChoice {
				la = s
			}
		}
	} else {
		la = members[len(members)-1]
	}
	if la != nil {
		if la.voted {
			return nil // an unsolicited vote already arrived; no delegation needed
		}
		la.isLastAgent = true
	}
	return la
}

// prepareLocal drives the node's resource managers through Prepare
// (protocol.PrepareAll), folding their vote and attributes into the
// transaction aggregate.
func (n *Node) prepareLocal(c *txCtx) {
	if len(n.resources) > 0 {
		res := protocol.PrepareAll(n.resources, c.id)
		c.foldVote(res.Vote, n.eng.cfg.Options.ReadOnly, res.Reliable, res.OKToLeaveOut)
	}
	c.localPrepared = true
}

// foldVote folds one vote — a local resource's or a subordinate's —
// into the transaction's aggregate. With read-only votes disabled a
// read-only vote counts as yes: full participation.
func (c *txCtx) foldVote(v protocol.VoteValue, readOnly, reliable, leaveOut bool) {
	if v == protocol.VoteNo {
		c.anyNo = true
	}
	if v == protocol.VoteNo || v == protocol.VoteYes || !readOnly {
		c.allReadOnly = false
	}
	c.allReliable = c.allReliable && reliable
	c.allLeaveOut = c.allLeaveOut && leaveOut
}

// handlePrepare begins phase one at a subordinate.
func (n *Node) handlePrepare(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c := n.ctx(tx)
	c.sub(from) // the coordinator is a partner too
	if m.Presume == protocol.VariantPaxos {
		px := n.paxos(c)
		if meta, err := protocol.DecodePaxosMeta(m.Payload); err == nil {
			px.Adopt(meta.Acceptors, meta.Participants)
		}
		if c.state == stPrepared && !px.VoteSent {
			// Prepared unsolicited before the acceptor membership was
			// known: the late Prepare supplies it; vote now.
			n.paxosSendAccept0(c)
			return
		}
	}
	if c.state == stPreparing && c.isRoot {
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
	if c.state != stActive {
		return // duplicate Prepare
	}
	c.haveCoord = true
	c.coord = from
	c.longLocksAsked = m.LongLocks
	n.startSubordinatePhase1(c, protocol.Asked)
}

// startSubordinatePhase1 runs phase one at a node that will vote
// upstream (asked, or volunteering: the script called
// Tx.UnsolicitedVote) or owns a delegated decision.
func (n *Node) startSubordinatePhase1(c *txCtx, ask protocol.Ask) {
	if c.state != stActive {
		return
	}
	c.ask = ask
	if ask == protocol.Volunteered && !c.haveCoord {
		// The server's coordinator is the partner that brought it
		// into the transaction.
		c.coord = c.firstContact
		c.haveCoord = c.firstContactSet
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
	if pre := n.eng.cfg.Variant.PrePrepare(); pre != "" && len(members) > 0 {
		// A cascaded coordinator too (Figure 3).
		n.logTx(c, protocol.LogRecord{Kind: pre, Coord: string(c.coord), Subs: memberIDs(members)}, true)
		c.pnPendingLogged = true
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
	s := c.sub(from)
	if s.voted {
		return // duplicate
	}
	if m.Unsolicited && !n.eng.cfg.Options.UnsolicitedVote && c.state == stActive {
		// Receiver not configured for unsolicited votes: note and
		// accept anyway (the vote is still valid; the option gate is
		// about what coordinators are prepared to exploit).
		n.trcApp("unexpected unsolicited vote from " + string(from))
	}
	s.voted = true
	s.vote = m.Vote
	s.reliable = m.Reliable
	s.okToLeave = m.OKToLeaveOut
	s.unsolicited = m.Unsolicited

	if c.state == stPreparing && s.prepareSent {
		c.votesPending--
	}
	// A read-only vote with the option off cannot happen in a
	// homogeneous configuration; it is downgraded defensively.
	c.foldVote(s.vote, n.eng.cfg.Options.ReadOnly, m.Reliable, m.OKToLeaveOut)
	if c.state == stPreparing {
		n.checkVotes(c)
	}
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
	s := n.subOf(tx)
	step := s.Delegate(&m)
	if step.Do == protocol.DoReply {
		n.send(from, step.Msg)
		return
	}
	c := n.ctx(tx)
	if c.state != stActive {
		return
	}
	c.haveCoord = true
	c.coord = from
	c.lastAgentAsked = true
	if step.Do == protocol.DoDecide {
		n.ownDecision(c, false)
		return
	}
	n.startSubordinatePhase1(c, protocol.Asked)
}

// subOf is the node's view of tx as one subordinate's part
// (protocol.Sub): a live context, or the outcome it remembers once the
// context is forgotten. The simulator runs one variant everywhere, and
// a node holds a prepared state once it has logged a record; it keeps
// no vote, since its coordinators never resend a Prepare.
func (n *Node) subOf(tx protocol.TxID) protocol.Sub {
	s := protocol.Sub{Presume: n.eng.cfg.Variant}
	if c, ok := n.txs[tx]; ok {
		s.Prepared, s.Done, s.Committed = c.loggedAny, c.decided, c.decisionCommit
	} else if o, ok := n.done[tx]; ok && o != OutcomeUnknown {
		s.Done, s.Committed = true, o != OutcomeAborted
	}
	return s
}

// own is what a simulator node knows beyond its Sub view when an
// outcome reaches it: its variant, which is surely its coordinator's.
func (n *Node) own() protocol.Own {
	return protocol.Own{Variant: n.eng.cfg.Variant, Announced: true}
}

// checkVotes continues the protocol once every expected vote is in.
func (n *Node) checkVotes(c *txCtx) {
	if c.state != stPreparing || !c.localPrepared || c.votesPending > 0 {
		return
	}
	if c.anyNo {
		if c.isRoot || c.lastAgentAsked {
			n.ownDecision(c, false)
		} else {
			n.voteUpstream(c)
		}
		return
	}
	if c.delegationPlanned {
		n.delegate(c)
		return
	}
	if c.isRoot || c.lastAgentAsked {
		n.ownDecision(c, true)
		return
	}
	n.voteUpstream(c)
}

// delegate hands the decision to the chosen last agent: the node
// prepares itself (forcing a prepared record unless it is entirely
// read-only) and sends its YES vote with the delegation bit.
func (n *Node) delegate(c *txCtx) {
	var la *subInfo
	for _, s := range c.orderedSubs() {
		if s.isLastAgent {
			la = s
		}
	}
	if la == nil {
		n.ownDecision(c, true)
		return
	}
	c.state = stDelegated
	c.delegationPlanned = false
	// A read-only initiator delegates with nothing to recover (§4).
	c.votedReadOnly = c.allReadOnly && n.eng.cfg.Options.ReadOnly
	// A pre-prepare record naming the agent already covers it.
	if !c.votedReadOnly && c.pnPendingAgent != la.id {
		n.logTx(c, protocol.LogRecord{Kind: protocol.RecPrepared, Coord: string(c.coord), Agent: string(la.id), Subs: c.yesSubIDs(la.id)}, true)
	}
	n.trcState(c.id, "delegated to "+string(la.id))
	n.send(la.id, n.delegation(c, false))
	n.armHeuristic(c) // a delegating coordinator is in doubt like any prepared node
	n.armDelegationWatch(c, la.id)
}

// delegation is c's vote to its last agent, carrying the decision;
// repeat marks one sent again because no answer came.
func (n *Node) delegation(c *txCtx, repeat bool) protocol.Message {
	m := protocol.Message{Type: protocol.MsgVote, Tx: c.id.String(), LastAgent: true, Repeat: repeat, LongLocks: n.eng.cfg.Options.LongLocks, Vote: protocol.VoteYes}
	if c.votedReadOnly {
		m.Vote = protocol.VoteReadOnly
	}
	return m
}

// yesSubIDs lists partners that voted yes (phase-two recipients),
// excluding the given agent and the coordinator.
func (c *txCtx) yesSubIDs(exclude protocol.NodeID) []string {
	var out []string
	for _, s := range c.orderedSubs() {
		if s.id == exclude || (c.haveCoord && s.id == c.coord) {
			continue
		}
		if s.voted && s.vote == protocol.VoteYes {
			out = append(out, string(s.id))
		}
	}
	return out
}

// voteUpstream casts this subordinate's folded vote — its resources'
// and its subtree's — to its coordinator, as protocol.Sub.Voted asks.
func (n *Node) voteUpstream(c *txCtx) {
	opts := n.eng.cfg.Options
	vote := protocol.VoteYes
	switch {
	case c.anyNo:
		vote = protocol.VoteNo
	case c.allReadOnly && opts.ReadOnly:
		vote = protocol.VoteReadOnly
	}
	yes := c.yesSubIDs("")
	s := n.subOf(c.id)
	step := s.Voted(c.id.String(), vote, len(yes) == 0, c.ask)
	msg := s.Vote
	if vote != protocol.VoteNo {
		msg.Reliable = c.allReliable
		msg.OKToLeaveOut = c.allLeaveOut
	}
	switch step.Then {
	case protocol.Aborts:
		// Abort the local subtree; the coordinator will not contact us
		// again (a NO voter needs no outcome message).
		n.send(c.coord, msg)
		n.takeOutcome(c, false, protocol.NoWrite, protocol.LogRecord{})
		return
	case protocol.Leaves:
		// Read-only: no logging, out of phase two, locks released by
		// the resources at their vote (§4 Read Only).
		c.votedReadOnly = true
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
		n.logTx(c, protocol.LogRecord{Kind: protocol.RecPrepared, Coord: string(c.coord), Subs: yes}, true)
	}
	c.state = stPrepared
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
		if c.state != stPrepared || c.decided {
			return
		}
		n.eng.arriveAt(n, at)
		c.state = stInDoubt
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
		if c.state != stDelegated || c.decided {
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
