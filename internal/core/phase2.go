package core

import (
	"strconv"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/txerr"
)

// ownDecision is taken by the decision owner — the root coordinator
// or a delegated last agent once phase one concludes, or a delegating
// coordinator when its last agent reports the decision.
func (n *Node) ownDecision(c *txCtx, commit bool) {
	if !c.sub.Done {
		n.takeOutcome(c, commit, true, protocol.NoWrite)
	}
}

// takeOutcome is the tail of every decision at a node — owned,
// received, reported by its last agent, or taken by voting no: its
// round learns it (protocol.Coord.Decide), the outcome is traced, its
// record, naming the coordinator and the yes-voters, is written as the
// owner's rule asks when own and as w asks otherwise, and phase two
// runs.
func (n *Node) takeOutcome(c *txCtx, commit, own bool, w protocol.Write) {
	d := c.round.Decide(commit)
	if own {
		w = d.Write
	}
	c.sub.Finish(commit)
	n.trcDecision(c, commit)
	n.disarmHeuristic(c)
	n.logOutcome(c, commit, w, protocol.LogRecord{Coord: string(c.coord), Subs: d.Yes})
	n.phase2(c, false)
}

func (n *Node) trcDecision(c *txCtx, commit bool) {
	n.eng.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Kind: trace.KindDecision,
		Tx: c.id.String(), Detail: outcomeWord(commit) + "(" + c.id.String() + ")"})
}

// receivedDecision is taken by a prepared subordinate when the
// outcome arrives (Commit/Abort message or recovery Outcome reply).
func (n *Node) receivedDecision(c *txCtx, commit bool) {
	if !c.sub.Done {
		n.takeOutcome(c, commit, false, c.sub.Outcome(c.id.String(), commit, n.own(c.round.Logged)).Write)
	}
}

// phase2 propagates the decision downstream, completes local
// resources, notifies the delegating coordinator if this node was the
// last agent, and begins ack collection; resumed says a restart re-runs
// it.
func (n *Node) phase2(c *txCtx, resumed bool) {
	commit := c.sub.Committed
	cfg := n.eng.cfg
	out := protocol.OutcomeMessage(c.id.String(), commit)
	r := &c.round
	agent := r.Agent()
	for i, id := range r.Subs {
		if v, voted := r.VoteOf(i); id == agent || voted && v == protocol.VoteNo {
			// The agent made the decision or never took part; a no-voter
			// aborted itself when it voted.
			r.Waive(i)
			continue
		}
		if !r.Tells(i) {
			continue // dropped out in phase one
		}
		s := c.partner(protocol.NodeID(id))
		n.send(s.id, out)
		switch {
		case !r.Owes(i):
		case commit && cfg.Options.VoteReliable && s.reliable:
			// A reliable subtree cannot take heuristic decisions worth
			// reporting; the implied ack suffices (§4 Vote Reliable).
			r.Waive(i)
		default:
			// A long-locks subordinate acks on its own schedule (with
			// the next transaction's data); the coordinator waits in
			// receive state without re-contacting it.
			s.longLocks = cfg.Options.LongLocks && commit
		}
	}
	n.completeResources(c, commit)

	if c.lastAgentAsked && c.coord != "" {
		// Last agent: the decision travels upstream; no explicit ack
		// will come back — the coordinator's next data is the implied
		// acknowledgment (Figure 6).
		n.send(c.coord, out)
		c.awaitingImplied = true
	}

	// Early acknowledgment: a subordinate acks as soon as its own
	// outcome is logged, before its subtree has acknowledged (§4
	// Commit Acknowledgment) — when the outcome is acknowledged at all.
	if (cfg.Options.EarlyAck || resumed) && c.sub.Acks() && !c.isRoot && !c.lastAgentAsked && c.coord != "" {
		n.sendAckUpstream(c)
	}
	if c.awaitsRetriableAcks() {
		n.armAckTimer(c)
	}
	n.checkAcks(c)
}

// awaitsRetriableAcks reports whether any pending ack belongs to a
// subordinate the coordinator should actively re-contact (long-locks
// subs are excluded: their ack is deliberately deferred).
func (c *txCtx) awaitsRetriableAcks() bool {
	for i, id := range c.round.Subs {
		if c.round.Owes(i) && !c.partner(protocol.NodeID(id)).longLocks {
			return true
		}
	}
	return false
}

// completeResources drives local resource managers through
// commit/abort (protocol.CompleteAll) and folds heuristic
// disagreements into the transaction's status.
func (n *Node) completeResources(c *txCtx, commit bool) {
	for _, rep := range protocol.CompleteAll(n.resources, c.id, commit, string(n.id)) {
		c.status.Heuristics = append(c.status.Heuristics, rep)
		n.eng.met.Heuristic(rep.Node, rep.Committed)
		if rep.Damage {
			n.eng.met.Damage(rep.Node)
			n.trcApp("HEURISTIC DAMAGE at " + rep.Node)
		}
	}
	n.trcUnlock(c.id, "released")
}

// handleOutcomeMsg processes a Commit or Abort arriving from the
// network.
func (n *Node) handleOutcomeMsg(from protocol.NodeID, m protocol.Message, commit bool) {
	tx := protocol.ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		// Forgotten or never known: the outcome remembered in n.done
		// (rebuilt from the log) is re-acked; otherwise the outcome is
		// applied as at a node no Prepare reached. A logless voter that
		// restarted knows nothing, and the coordinator's retransmitted
		// Commit is its durability: it installs the outcome before
		// acking, since the Ack releases the coordinator's record.
		s := n.forgotten(tx)
		step := s.Outcome(m.Tx, commit, n.own(false))
		if step.Do == protocol.DoApply && step.Write != protocol.NoWrite {
			kind, o := protocol.RecAborted, OutcomeAborted
			if commit {
				kind, o = protocol.RecCommitted, OutcomeCommitted
			}
			n.logRec(tx, protocol.LogRecord{Kind: kind, Coord: string(from)}, step.Write == protocol.Forced)
			n.logRec(tx, protocol.LogRecord{Kind: protocol.RecEnd}, false)
			n.done[tx] = o
		}
		if step.Do == protocol.DoReply || step.Ack {
			n.send(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
		}
		return
	}
	switch {
	case c.sub.Done:
		// Duplicate outcome (coordinator recovery resend): re-ack.
		if (c.ackSent || c.completed()) && c.sub.Outcome(m.Tx, commit, n.own(c.round.Logged)).Do == protocol.DoReply {
			n.send(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx, Heuristics: c.status.Heuristics})
		}
	case c.myHeuristic != nil:
		n.resolveHeuristic(c, commit)
	case c.round.Delegated():
		n.ownDecision(c, commit)
	case c.sub.Prepared:
		n.receivedDecision(c, commit)
	case n.eng.cfg.Variant == protocol.VariantPaxos:
		// A recovery leader resolved the transaction from the acceptor
		// quorum while this node (possibly the ballot-0 coordinator
		// itself) was still collecting — either outcome is
		// quorum-backed and final.
		n.receivedDecision(c, commit)
	case !commit:
		// An abort can overtake the voting phase (another participant
		// voted no, or the coordinator timed out).
		if c.coord == "" {
			c.coord = from
		}
		n.receivedDecision(c, false)
	}
}

// handleAck processes a subordinate's acknowledgment.
func (n *Node) handleAck(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return // already complete: stray or duplicate ack
	}
	// An unexpected ack (e.g. we gave up on this sub) still has its
	// damage reports merged, so nothing is silently lost.
	counted := c.round.Ack(string(from), &m)
	n.mergeAckStatus(c, m)
	if counted {
		n.checkAcks(c)
	}
}

func (n *Node) mergeAckStatus(c *txCtx, m protocol.Message) {
	c.status.Heuristics = append(c.status.Heuristics, m.Heuristics...)
	for _, h := range m.Heuristics {
		if h.Damage {
			n.trcApp("heuristic damage reported by " + h.Node)
		}
	}
	if m.RecoveryPending {
		c.status.RecoveryPending = true
	}
}

// checkAcks finishes phase two once every expected acknowledgment has
// arrived.
func (n *Node) checkAcks(c *txCtx) {
	if !c.sub.Done || c.round.Owed() > 0 {
		return
	}
	c.ackTimerGen++ // disarm retries
	if c.isRoot || c.lastAgentAsked && c.coord != "" {
		// Decision owner (or the delegating coordinator, handled via
		// isRoot): complete the application, then forget.
		if c.isRoot {
			n.completeApp(c, c.status)
		}
		if c.awaitingImplied {
			n.trcState(c.id, "completed, awaiting implied ack")
			return
		}
		n.writeEndAndForget(c)
		return
	}
	if c.coord == "" {
		n.writeEndAndForget(c)
		return
	}
	// Subordinate: acknowledge upstream per the ack policy. An early
	// ack has already gone out, and an outcome the variant does not
	// acknowledge closes out at once.
	opts := n.eng.cfg.Options
	switch {
	case c.ackSent, !c.sub.Acks():
		n.writeEndAndForget(c)
	case c.sub.Committed && opts.VoteReliable && c.votedReliable:
		// Reliable subtree: no explicit ack; the implied ack (next
		// data, or session close) lets us forget (§4 Vote Reliable).
		c.awaitingImplied = true
		n.trcState(c.id, "reliable: ack implied")
	case c.sub.Committed && opts.LongLocks && c.longLocksAsked:
		// Long locks: buffer the ack; it rides the first data of the
		// next transaction (§4 Long Locks, Figure 7).
		n.defer_(c.coord, n.ackMessage(c))
		n.trcState(c.id, "ack deferred (long locks)")
		n.writeEndAndForget(c)
	default:
		n.sendAckUpstream(c)
		n.writeEndAndForget(c)
	}
}

func (n *Node) ackMessage(c *txCtx) protocol.Message {
	m := protocol.Message{Type: protocol.MsgAck, Tx: c.id.String()}
	if n.eng.cfg.Variant.HeuristicsToRoot() {
		// PN propagates heuristic reports all the way to the root.
		m.Heuristics = c.status.Heuristics
	} else if len(c.status.Heuristics) > 0 {
		// PA (as in R*): damage is reported to the immediate
		// coordinator and the operator only; here it stops.
		n.trcApp("operator notified of heuristic damage (not propagated)")
	}
	m.RecoveryPending = c.status.RecoveryPending
	return m
}

func (n *Node) sendAckUpstream(c *txCtx) {
	if c.ackSent {
		return
	}
	c.ackSent = true
	n.send(c.coord, n.ackMessage(c))
}

// completeApp returns control to the application that initiated the
// commit.
func (n *Node) completeApp(c *txCtx, status AckStatus) {
	if c.completedApp {
		return
	}
	c.completedApp = true
	outcome := outcomeOf(c.sub)
	if status.Damaged() {
		outcome = OutcomeHeuristicMixed
	}
	res := Result{
		Outcome: outcome,
		Status:  status,
		Latency: n.localTime - c.startAt,
		Err:     c.abortErr,
	}
	if outcome == OutcomeHeuristicMixed {
		res.Err = txerr.ErrHeuristicDamage
	}
	n.eng.met.Outcome(outcome.String())
	n.eng.met.Latency(res.Latency)
	n.trcState(c.id, "application resumed: "+outcome.String())
	if c.onComplete != nil {
		c.onComplete(res)
	}
}

// writeEndAndForget closes the transaction at this node: the END
// record (non-forced — its loss only costs redundant recovery work)
// and removal from the active table. Leave-out suspension takes
// effect here, on successful commit.
func (n *Node) writeEndAndForget(c *txCtx) {
	if c.round.Logged {
		n.logRec(c.id, protocol.LogRecord{Kind: protocol.RecEnd}, false)
	}
	n.forget(c, outcomeOf(c.sub), true)
}

// forget removes the transaction context, recording the outcome for
// duplicate handling, and applies leave-out bookkeeping.
func (n *Node) forget(c *txCtx, outcome Outcome, record bool) {
	if record {
		n.done[c.id] = outcome
	}
	opts := n.eng.cfg.Options
	if opts.LeaveOut && c.sub.Committed {
		for i, id := range c.round.Subs {
			s := c.partner(protocol.NodeID(id))
			if v, voted := c.round.VoteOf(i); voted && s.okToLeave && v != protocol.VoteNo {
				l := n.link(s.id)
				l.dormant = true
				l.okToLeaveOut = true
				n.trcApp("partner " + string(s.id) + " left dormant (ok-to-leave-out)")
			}
		}
	}
	// A subordinate that promised OK-to-leave-out suspends itself.
	if opts.LeaveOut && c.coord != "" && c.allLeaveOut && c.sub.Committed && !c.isRoot {
		n.suspendTowards(c.coord)
	}
	delete(n.txs, c.id)
}

// armAckTimer schedules phase-two re-contact for unacked subs.
func (n *Node) armAckTimer(c *txCtx) {
	c.ackTimerGen++
	gen := c.ackTimerGen
	n.afterTx(c, n.eng.cfg.AckTimeout, func(at time.Duration) {
		if c.ackTimerGen == gen && c.round.Owed() > 0 {
			n.eng.arriveAt(n, at)
			n.ackTimeout(c)
		}
	})
}

// ackTimeout re-contacts unresponsive subordinates, applies the
// Wait-For-Outcome policy, and gives up after the configured number
// of attempts.
func (n *Node) ackTimeout(c *txCtx) {
	cfg := n.eng.cfg
	out := protocol.OutcomeMessage(c.id.String(), c.sub.Committed)
	maxAttempts := cfg.MaxRecoveryAttempts
	if maxAttempts <= 0 {
		maxAttempts = 10
	}
	failedOnce := false
	for i, id := range c.round.Subs {
		s := c.partner(protocol.NodeID(id))
		if !c.round.Owes(i) || s.longLocks {
			continue
		}
		s.attempts++
		if s.attempts >= 2 {
			failedOnce = true
		}
		if s.attempts >= maxAttempts {
			// Operator intervention: stop waiting for this subtree.
			n.trcApp("giving up on " + string(s.id) + " after " + strconv.Itoa(s.attempts) + " attempts")
			c.round.Waive(i)
			c.status.RecoveryPending = true
			continue
		}
		n.trcApp("re-contacting " + string(s.id) + " (attempt " + strconv.Itoa(s.attempts) + ")")
		n.send(s.id, out)
	}
	if cfg.Options.WaitForOutcome && failedOnce && c.round.Owed() > 0 {
		// The single re-contact attempt has failed; give the
		// application control back with the outcome-pending indication
		// while recovery continues in the background (§4 Wait For
		// Outcome).
		c.status.RecoveryPending = true
		if c.isRoot && !c.completedApp {
			st := c.status
			st.RecoveryPending = true
			n.completeApp(c, st)
		}
		if !c.isRoot && c.coord != "" && !c.ackSent {
			n.sendAckUpstream(c)
		}
	}
	if c.awaitsRetriableAcks() {
		n.armAckTimer(c)
	} else {
		n.checkAcks(c)
	}
}
