package core

import (
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// restart recovers the node from its durable log: the variant's
// presumption rules decide, for every unfinished transaction, whether
// to resume phase two, inquire upstream, drive subordinates, or do
// nothing and let presumption answer later inquiries.
func (n *Node) restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.log = wal.New(n.store)
	n.observeLog(n.log)
	n.eng.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Kind: trace.KindError, Detail: "restart"})
	n.trcApp("restart: scanning log")

	recs, err := n.log.Records()
	if err != nil {
		n.trcApp("restart: log scan failed: " + err.Error())
		return
	}
	for _, l := range protocol.ReplayLog(recs, string(n.id)) {
		n.recoverTx(protocol.ParseTxID(l.Tx), &l)
	}
}

// recoverTx reinstates one transaction from what its log proves.
func (n *Node) recoverTx(tx protocol.TxID, l *protocol.TxLog) {
	d := l.Decision
	switch {
	case l.Ended:
		// Fully complete; remember the outcome for duplicate traffic.
		switch {
		case d == nil:
			n.done[tx] = OutcomeUnknown
		case d.Kind == protocol.RecCommitted:
			n.done[tx] = OutcomeCommitted
		default:
			n.done[tx] = OutcomeAborted
		}

	case l.Heuristic != nil:
		// A unilateral decision was taken and the real outcome is
		// still unknown: reinstate and inquire so damage can be
		// detected and reported.
		c := n.ctx(tx)
		c.round.Logged = true
		c.myHeuristic = &protocol.HeuristicReport{Node: string(n.id), Committed: l.Heuristic.Commit}
		c.coord = protocol.NodeID(l.Heuristic.Coord)
		c.haveCoord = c.coord != ""
		if c.haveCoord {
			n.scheduleInquiry(c, 0)
		}

	case d != nil:
		n.resumeOutcome(tx, d, d.Kind == protocol.RecCommitted)

	case l.Paxos():
		n.recoverPaxosTx(tx, l)

	case l.Prepared != nil:
		if l.Prepared.Agent != "" {
			n.resumeDelegation(tx, l.Prepared)
			return
		}
		// In doubt: voted yes, outcome unknown. Reinstate and inquire
		// the coordinator.
		c := n.reinstate(tx, l.Prepared, "")
		c.sub.Reinstate(l.Prepared)
		n.trcState(tx, "in doubt after restart")
		if c.haveCoord {
			n.scheduleInquiry(c, 0)
		}
		n.armHeuristic(c)

	case l.Pre != nil:
		// PN coordinator (or leaf that crashed between its pending
		// and prepared forces).
		if l.Pre.Agent != "" {
			// The pending record covers a delegation.
			n.resumeDelegation(tx, l.Pre)
			return
		}
		if len(l.Pre.Subs) > 0 {
			// Coordinator crashed during phase one: no decision was
			// made, so abort — and, presuming nothing, drive every
			// subordinate to the abort and collect their
			// acknowledgments (they may hold heuristic reports).
			c := n.reinstate(tx, l.Pre, "")
			n.trcState(tx, "PN recovery: aborting phase-one transaction")
			n.ownDecision(c, false)
			return
		}
		// A leaf's AgentPending with no prepared record: the vote
		// never left, the coordinator will have aborted. Nothing to do.
		n.done[tx] = OutcomeAborted
	}
}

// reinstate rebuilds tx's context from r, a record its log proves:
// logged, under r's coordinator (a root when r names none), with a
// round whose yes-voters are r's subordinates but agent, which holds
// the delegation when it is not "".
func (n *Node) reinstate(tx protocol.TxID, r *protocol.LogRecord, agent protocol.NodeID) *txCtx {
	c := n.ctx(tx)
	c.round.Logged = true
	c.coord = protocol.NodeID(r.Coord)
	c.haveCoord = c.coord != ""
	c.isRoot = !c.haveCoord
	yes := make([]string, 0, len(r.Subs))
	for _, s := range r.Subs {
		if s != string(agent) {
			yes = append(yes, s)
		}
	}
	c.round.Reinstate(n.eng.cfg.Variant, yes, string(agent))
	return c
}

// resumeDelegation reinstates a coordinator that delegated to a last
// agent and crashed before learning the decision: the agent owns the
// outcome, so the coordinator is in doubt and asks it again by
// repeating the delegation (armDelegationWatch).
func (n *Node) resumeDelegation(tx protocol.TxID, p *protocol.LogRecord) {
	agent := protocol.NodeID(p.Agent)
	c := n.reinstate(tx, p, agent)
	n.trcState(tx, "restart: delegated to "+p.Agent+", asking again")
	n.send(agent, n.delegation(c, true))
	n.armDelegationWatch(c, agent)
}

// recoverPaxosTx reinstates an undecided Paxos Commit transaction from
// the node's durable acceptor and participant records: the node comes
// back in doubt, restores its acceptor state (promised ballot and
// accepted instance values), and leads a staggered recovery round to
// learn the outcome from the acceptor quorum.
func (n *Node) recoverPaxosTx(tx protocol.TxID, l *protocol.TxLog) {
	c := n.ctx(tx)
	c.round.Logged = true
	c.sub.Reinstate(l.Prepared)

	if p := l.Prepared; p != nil {
		c.coord = protocol.NodeID(p.Coord)
		c.haveCoord = c.coord != ""
	}
	px := n.paxos(c)
	l.Restart(&px.PaxosTx)
	c.isRoot = len(px.Participants) > 0 && px.Participants[0] == px.Self

	n.trcState(tx, "in doubt after restart (paxos)")
	if len(px.Acceptors) == 0 {
		// Degenerate: no membership survived. Fall back to classic
		// inquiry if a coordinator is known; otherwise an operator must
		// resolve it.
		if c.haveCoord {
			n.scheduleInquiry(c, 0)
		}
		return
	}
	n.armPaxosTimer(c, n.eng.cfg.InquireRetry, "")
}

// resumeOutcome re-enters phase two for a transaction whose decision
// record survived: subordinates are re-notified (idempotently), local
// resources re-driven (completed ones treat this as a duplicate), acks
// re-collected, and — for a subordinate — the ack upstream re-sent at
// once: its coordinator may still be waiting for it.
func (n *Node) resumeOutcome(tx protocol.TxID, p *protocol.LogRecord, commit bool) {
	c := n.reinstate(tx, p, "")
	c.sub.Finish(commit)
	n.trcDecision(c, commit)
	n.trcState(tx, "restart: resuming phase two")
	c.round.Decide(commit)
	n.phase2(c, true)
}

// scheduleInquiry sends (after delay) a recovery inquiry to the
// transaction's coordinator, retrying up to the attempt cap.
func (n *Node) scheduleInquiry(c *txCtx, extraDelay int) {
	cfg := n.eng.cfg
	c.inquiryAttempts++
	if c.inquiryAttempts > 8 {
		n.trcApp("giving up inquiries for " + c.id.String() + " (operator needed)")
		return
	}
	n.afterTx(c, cfg.InquireRetry*time.Duration(1+max(extraDelay, 0)), func(at time.Duration) {
		if (c.sub.Prepared || c.myHeuristic != nil) && !c.sub.Done {
			n.eng.arriveAt(n, at)
			n.send(c.coord, protocol.Message{Type: protocol.MsgInquire, Tx: c.id.String()})
		}
	})
}

// handleInquire answers a recovery inquiry by the rulebook
// (protocol.Answer) from local state or the recovered outcome table.
func (n *Node) handleInquire(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	k := protocol.KnowsNothing
	if c, ok := n.txs[tx]; ok {
		switch {
		case !c.sub.Done:
			k = protocol.KnowsUndecided
		case c.sub.Committed:
			k = protocol.KnowsCommit
		default:
			k = protocol.KnowsAbort
		}
	} else {
		switch n.done[tx] {
		case OutcomeCommitted, OutcomeHeuristicMixed:
			k = protocol.KnowsCommit
		case OutcomeAborted:
			k = protocol.KnowsAbort
		}
	}
	n.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: protocol.Answer(k, m.Presume, n.eng.cfg.Variant)})
}

// handleOutcomeReply resolves an in-doubt transaction with the answer
// to its inquiry.
func (n *Node) handleOutcomeReply(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return
	}
	switch m.Outcome {
	case protocol.OutcomeCommit, protocol.OutcomeAbort:
		commit := m.Outcome == protocol.OutcomeCommit
		switch {
		case c.myHeuristic != nil:
			n.resolveHeuristic(c, commit)
		case c.sub.Prepared, n.eng.cfg.Variant == protocol.VariantPaxos && c.preparing():
			// A Paxos coordinator still collecting acceptances can be
			// resolved by a done participant's outcome short-circuit.
			n.receivedDecision(c, commit)
		}
	case protocol.OutcomeInProgress, protocol.OutcomeUnknown:
		// Ask again later (bounded); heuristic policy may intervene.
		if n.eng.cfg.Variant == protocol.VariantPaxos {
			n.armPaxosTimer(c, n.eng.cfg.InquireRetry, "")
			return
		}
		n.scheduleInquiry(c, 1)
	}
}
