package core

// Paxos Commit in the simulator: protocol.PaxosLead sequences the
// protocol (see its header) and this file drives it — messages,
// records, timers.

import (
	"strconv"
	"time"

	"repro/internal/protocol"
)

// paxosCtx is a Paxos Commit transaction's state at this node, and
// the generation of its pending timer.
type paxosCtx struct {
	protocol.PaxosLead
	timerGen int
}

// paxos returns c's Paxos state, creating it on first use.
func (n *Node) paxos(c *txCtx) *paxosCtx {
	if c.pax == nil {
		c.pax = &paxosCtx{PaxosLead: *protocol.NewPaxosLead(string(n.id), n.eng.cfg.Hooks)}
	}
	return c.pax
}

// runPaxosPhase1 is the coordinator's fast path: no pre-force (the
// acceptor quorum is the durable truth), Prepares announce the
// acceptor membership, and the coordinator's own instance value goes
// to the acceptors at ballot 0 alongside everyone else's.
func (n *Node) runPaxosPhase1(c *txCtx, members []*subInfo) {
	subs := memberIDs(members)
	prep := n.paxos(c).Begin(c.id.String(), subs)
	c.round.Begin(protocol.VariantPaxos, subs, "")
	c.round.Ask()
	for _, s := range members {
		n.send(s.id, prep)
	}
	n.prepareLocal(c)
	n.paxosCast(c, c.round.Fold())
	n.armPaxosTimer(c, n.eng.cfg.VoteTimeout, "paxos: fast path overdue, starting recovery round for "+c.id.String())
}

// paxosVoteUpstream replaces the MsgVote of the classic variants: a
// prepared subordinate makes its instance value known to the
// acceptors instead of to the coordinator alone. A No voter may abort
// unilaterally: its No is on its way to the acceptors, and recovery
// defaults a free instance to No — either way the transaction cannot
// commit.
func (n *Node) paxosVoteUpstream(c *txCtx) {
	vote := c.round.Fold()
	if vote != protocol.VoteNo {
		membership := n.paxos(c).Meta(0, "")
		n.logTx(c, protocol.LogRecord{Kind: protocol.RecPrepared, Coord: string(c.coord), Paxos: &membership}, true)
		c.sub.Prepared = true
	}
	n.paxosCast(c, vote)
	if vote == protocol.VoteNo {
		n.takeOutcome(c, false, false, protocol.NoWrite)
		return
	}
	n.armHeuristic(c)
	n.armOutcomeWatch(c)
}

// paxosCast sends this participant's ballot-0 accept (PaxosTx.Cast).
func (n *Node) paxosCast(c *txCtx, v protocol.VoteValue) {
	if m, ok := n.paxos(c).Cast(v); ok {
		n.paxosToAcceptors(c, m)
	}
}

// paxosToAcceptors sends m to every acceptor, taking it here when this
// node is one.
func (n *Node) paxosToAcceptors(c *txCtx, m protocol.PaxosMsg) {
	msg := m.Message(c.id.String())
	for _, a := range c.pax.Acceptors {
		if a == c.pax.Self {
			n.paxosAcceptor(c, m)
			continue
		}
		n.send(protocol.NodeID(a), msg)
	}
}

// handlePaxosAcceptor takes a PaxosAccept or PaxosQuery at an acceptor.
// A node that knows the outcome answers with it instead.
func (n *Node) handlePaxosAcceptor(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	pm, err := protocol.DecodePaxos(&m)
	if err != nil {
		return
	}
	o, forgotten := n.done[tx]
	if !forgotten {
		c := n.ctx(tx)
		n.paxos(c).Adopt(pm.Meta.Acceptors, pm.Meta.Participants)
		if !c.sub.Done {
			n.paxosAcceptor(c, pm)
			return
		}
		o = OutcomeAborted
		if c.sub.Committed {
			o = OutcomeCommitted
		}
	}
	if to, r, ok := pm.Answer(string(n.id), string(from), m.Tx, o == OutcomeCommitted); ok && o != OutcomeUnknown {
		n.send(protocol.NodeID(to), r)
	}
}

// paxosAcceptor applies the acceptor's rule for m and does what it
// asks: write the record, then report to the ballot's leader.
func (n *Node) paxosAcceptor(c *txCtx, m protocol.PaxosMsg) {
	step, ok := c.pax.Take(m)
	if !ok {
		return
	}
	n.logTx(c, c.pax.Record(step), step.Force)
	if step.To == c.pax.Self {
		n.paxosLead(c, n.id, step.Reply)
		return
	}
	n.send(protocol.NodeID(step.To), step.Reply.Message(c.id.String()))
}

// handlePaxosReply delivers an acceptor's reply to the ballot's leader.
func (n *Node) handlePaxosReply(from protocol.NodeID, m protocol.Message) {
	c, ok := n.txs[protocol.ParseTxID(m.Tx)]
	if pm, err := protocol.DecodePaxos(&m); ok && err == nil {
		n.paxosLead(c, from, pm)
	}
}

// paxosLead feeds a reply to the round this node leads and does what
// it asks: the proposal, then the decision.
func (n *Node) paxosLead(c *txCtx, from protocol.NodeID, m protocol.PaxosMsg) {
	if c.pax == nil || c.sub.Done {
		return
	}
	next := c.pax.Reply(string(from), m)
	if next.Propose != nil {
		n.trcApp("paxos: ballot " + strconv.Itoa(m.Meta.Ballot) + " proposing for " + c.id.String())
	}
	for _, a := range next.Propose {
		n.paxosToAcceptors(c, a)
	}
	if next.Decided {
		n.paxosDecide(c, next.Commit)
	}
}

// paxosDecide applies a quorum-backed decision at the leader and
// tells every other participant: the root through its round, as any
// coordinator does; a recovery leader directly, since the outcome must
// depend on no single node. The outcome record is written lazily: the
// acceptor quorum, not this node's log, is the durable truth.
func (n *Node) paxosDecide(c *txCtx, commit bool) {
	c.pax.timerGen++ // disarm pending fast-path/recovery timers
	if !c.isRoot {
		out := protocol.OutcomeMessage(c.id.String(), commit)
		for _, p := range c.pax.Others() {
			n.send(protocol.NodeID(p), out)
		}
		n.receivedDecision(c, commit)
		return
	}
	if c.round.Subs == nil {
		// Restarted: the round begins again from the membership.
		c.round.Begin(protocol.VariantPaxos, c.pax.Others(), "")
		c.round.Ask()
	}
	if commit {
		yes := protocol.Message{Type: protocol.MsgVote, Vote: protocol.VoteYes}
		for _, p := range c.round.Subs {
			c.round.Vote(p, &yes)
		}
	}
	n.ownDecision(c, commit)
}

// armPaxosTimer runs PaxosLead.Timeout after the given delay unless
// the transaction is decided first or another timer supersedes this
// one, and re-arms it for the next ballot. The coordinator's fast path
// arms it with the vote timeout — it may NOT abort unilaterally once
// accepts may exist — and a restart with the inquiry delay, staggered
// like scheduleInquiry.
func (n *Node) armPaxosTimer(c *txCtx, after time.Duration, note string) {
	px := n.paxos(c)
	px.timerGen++
	gen := px.timerGen
	n.afterTx(c, after, func(at time.Duration) {
		if px.timerGen != gen || c.sub.Done {
			return
		}
		n.eng.arriveAt(n, at)
		if note != "" {
			n.trcApp(note)
		}
		n.startPaxosRecovery(c)
	})
}

// startPaxosRecovery leads this participant's next recovery ballot:
// queries to every acceptor, then a timer that retries at a higher
// ballot if the round stalls (lost messages, a competing leader,
// crashed acceptors below quorum that later restart).
func (n *Node) startPaxosRecovery(c *txCtx) {
	px := c.pax
	if c.sub.Done || n.crashed || px == nil || len(px.Acceptors) == 0 {
		return
	}
	q, ok := px.Timeout()
	if !ok {
		n.trcApp("paxos: giving up recovery for " + c.id.String() + " (operator needed)")
		return
	}
	n.trcApp("paxos: recovery round ballot " + strconv.Itoa(q.Meta.Ballot) + " for " + c.id.String())
	n.paxosToAcceptors(c, q)
	n.armPaxosTimer(c, 2*n.eng.cfg.InquireRetry, "")
}
