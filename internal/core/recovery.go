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

// recoverTx reinstates one transaction as its log's restart rule says
// (protocol.TxLog.Comeback) and does the I/O it asks for: timers,
// inquiries, the redriven outcome, the repeated delegation.
func (n *Node) recoverTx(tx protocol.TxID, l *protocol.TxLog) {
	b := l.Comeback(n.eng.cfg.Variant)
	if b.Back == protocol.BackForgotten {
		n.done[tx] = outcomeOf(b.Sub) // for duplicate traffic
		return
	}
	c := n.ctx(tx)
	c.round, c.sub = b.Coord, b.Sub
	c.round.OnePhaseLazyDecision = n.eng.cfg.Hooks.OnePhaseLazyDecision
	c.coord = protocol.NodeID(b.Upstream)
	c.isRoot = c.coord == ""
	switch b.Back {
	case protocol.BackHeuristic:
		// A unilateral decision was taken and the real outcome is
		// still unknown: inquire so damage can be detected and
		// reported.
		c.myHeuristic = &protocol.HeuristicReport{Node: string(n.id), Committed: l.Heuristic.Commit}
		n.scheduleInquiry(c, 0)
	case protocol.BackRedrive:
		// Subordinates are re-notified (idempotently), local resources
		// re-driven (completed ones treat this as a duplicate), acks
		// re-collected, and a subordinate's ack upstream re-sent at
		// once: its coordinator may still be waiting for it.
		n.trcDecision(c, c.sub.Committed)
		n.trcState(tx, "restart: resuming phase two")
		n.phase2(c, true)
	case protocol.BackDelegated:
		// The agent owns the outcome: ask it again by repeating the
		// delegation (armDelegationWatch).
		agent := protocol.NodeID(c.round.Agent())
		n.trcState(tx, "restart: delegated to "+string(agent)+", asking again")
		n.send(agent, n.delegation(c, true))
		n.armDelegationWatch(c, agent)
	case protocol.BackPaxos:
		// In doubt — a coordinator too, though it wrote no Prepared
		// record — with the acceptor state its records hold
		// (TxLog.Restart), it leads a staggered recovery round to learn
		// the outcome from the acceptor quorum.
		c.sub.Prepared = true
		px := n.paxos(c)
		l.Restart(&px.PaxosTx)
		c.isRoot = len(px.Participants) > 0 && px.Participants[0] == px.Self
		n.trcState(tx, "in doubt after restart (paxos)")
		if len(px.Acceptors) > 0 {
			n.armPaxosTimer(c, n.eng.cfg.InquireRetry, "")
		} else {
			n.scheduleInquiry(c, 0) // degenerate: no membership survived
		}
	case protocol.BackInDoubt:
		n.trcState(tx, "in doubt after restart")
		n.scheduleInquiry(c, 0)
		n.armHeuristic(c)
	case protocol.BackAbort:
		// No decision was made, so abort — and, presuming nothing,
		// drive every subordinate to the abort and collect their
		// acknowledgments (they may hold heuristic reports).
		n.trcState(tx, "PN recovery: aborting phase-one transaction")
		n.ownDecision(c, false)
	}
}

// scheduleInquiry sends (after delay) a recovery inquiry to the
// transaction's coordinator, retrying up to the attempt cap. With no
// coordinator known, an operator must resolve the transaction.
func (n *Node) scheduleInquiry(c *txCtx, extraDelay int) {
	if c.coord == "" {
		return
	}
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
// (protocol.Answer) from the outcome it holds — the one it remembers
// (Node.forgotten), else its context's — and then from whether it
// holds the transaction, as the runtime does.
func (n *Node) handleInquire(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c, active := n.txs[tx]
	s := n.forgotten(tx)
	if active && !s.Done {
		s = c.sub
	}
	k := protocol.Knows(s.Done, s.Committed, active)
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
