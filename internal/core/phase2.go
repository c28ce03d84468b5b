package core

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/txerr"
)

// ownDecision is taken by the decision owner — the root coordinator
// or a delegated last agent — once phase one concludes.
func (n *Node) ownDecision(c *txCtx, commit bool) {
	if c.decided {
		return
	}
	c.decided = true
	c.decisionCommit = commit
	c.state = stDeciding
	n.trcDecision(c, commit)

	yes := c.yesSubIDs("")
	d := n.eng.cfg.Variant.Decide(commit, protocol.Round{
		ReadOnly: c.allReadOnly && n.eng.cfg.Options.ReadOnly,
		Logged:   c.loggedAny,
		Voted:    c.anyNo || len(yes) > 0,
	})
	if d.Redo && d.Write == protocol.Forced && n.eng.cfg.Hooks.OnePhaseLazyDecision {
		// Injected bug for the chaos oracle: under 1PC the decision
		// record is the only stable state in the whole tree, so writing
		// it lazily voids every voter's delegated durability (AC3).
		d.Write = protocol.Lazy
	}
	n.logOutcome(c, commit, d.Write, recPayload{Coord: c.coord, Subs: yes})
	n.phase2(c)
}

func (n *Node) trcDecision(c *txCtx, commit bool) {
	d := "abort"
	if commit {
		d = "commit"
	}
	n.eng.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Kind: trace.KindDecision,
		Tx: c.id.String(), Detail: d + "(" + c.id.String() + ")"})
}

// receivedDecision is taken by a prepared subordinate when the
// outcome arrives (Commit/Abort message or recovery Outcome reply).
func (n *Node) receivedDecision(c *txCtx, commit bool) {
	if c.decided {
		return
	}
	c.decided = true
	c.decisionCommit = commit
	n.trcDecision(c, commit)
	n.disarmHeuristic(c)
	a := n.eng.cfg.Variant.Apply(commit, c.loggedAny, true)
	n.logOutcome(c, commit, a.Write, recPayload{Coord: c.coord, Subs: c.yesSubIDs("")})
	n.phase2(c)
}

// expectsAck reports whether the coordinator waits for an explicit
// acknowledgment from sub for this outcome.
func (n *Node) expectsAck(s *subInfo, commit bool) bool {
	cfg := n.eng.cfg
	if !cfg.Variant.Acks(commit) {
		return false
	}
	if commit && cfg.Options.VoteReliable && s.reliable {
		// A reliable subtree cannot take heuristic decisions worth
		// reporting; the implied ack suffices (§4 Vote Reliable).
		return false
	}
	return true
}

// phase2 propagates the decision downstream, completes local
// resources, notifies the delegating coordinator if this node was the
// last agent, and begins ack collection.
func (n *Node) phase2(c *txCtx) {
	commit := c.decisionCommit
	c.state = stCommitting
	cfg := n.eng.cfg
	out := protocol.OutcomeMessage(c.id.String(), commit)
	for _, s := range c.orderedSubs() {
		if c.haveCoord && s.id == c.coord {
			continue
		}
		if s.isLastAgent {
			continue // the agent made the decision; it needs no copy
		}
		if !s.prepareSent && !s.voted {
			continue // never part of this commit operation
		}
		if s.voted && s.vote == protocol.VoteReadOnly {
			continue // dropped out in phase one
		}
		if s.voted && s.vote == protocol.VoteNo {
			continue // aborted itself when it voted no
		}
		n.send(s.id, out)
		if n.expectsAck(s, commit) {
			s.ackExpected = true
			// A long-locks subordinate acks on its own schedule (with
			// the next transaction's data); the coordinator waits in
			// receive state without re-contacting it.
			s.longLocks = cfg.Options.LongLocks && commit
			c.acksPending++
		}
	}
	n.completeResources(c, commit)

	if c.lastAgentAsked && c.haveCoord {
		// Last agent: the decision travels upstream; no explicit ack
		// will come back — the coordinator's next data is the implied
		// acknowledgment (Figure 6).
		n.send(c.coord, out)
		c.awaitingImplied = true
		c.impliedFrom = c.coord
	}

	// Early acknowledgment: a subordinate acks as soon as its own
	// outcome is logged, before its subtree has acknowledged (§4
	// Commit Acknowledgment) — when the outcome is acknowledged at all.
	if cfg.Options.EarlyAck && n.acksUpstream(c) && !c.isRoot && !c.lastAgentAsked && c.haveCoord && !c.votedReadOnly {
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
	for _, s := range c.orderedSubs() {
		if s.ackExpected && !s.acked && !s.longLocks {
			return true
		}
	}
	return false
}

// completeResources drives local resource managers through
// commit/abort and folds heuristic disagreements into the
// transaction's status.
func (n *Node) completeResources(c *txCtx, commit bool) {
	// Where phase one never ran — an abort overtook the voting phase,
	// or a restart resumes phase two — the node's resources are driven
	// to the outcome directly.
	rs := n.resources
	if c.localPrepared {
		rs = c.resources
	}
	for i, r := range rs {
		if c.localPrepared && c.resVotes[i].Vote == protocol.VoteReadOnly && n.eng.cfg.Options.ReadOnly {
			continue // dropped out at its vote
		}
		var err error
		if commit {
			err = r.Commit(c.id)
		} else {
			err = r.Abort(c.id)
		}
		if err != nil {
			n.noteResourceHeuristic(c, r, commit, err)
		}
	}
	n.trcUnlock(c.id, "released")
}

// noteResourceHeuristic interprets a commit/abort failure as a
// heuristic conflict when the resource reports one.
func (n *Node) noteResourceHeuristic(c *txCtx, r protocol.Resource, commit bool, err error) {
	hc, ok := r.(protocol.HeuristicCapable)
	if !ok || !errors.Is(err, protocol.ErrHeuristicConflict) {
		n.trcApp("resource " + r.Name() + " outcome error: " + err.Error())
		return
	}
	taken, tookCommit := hc.HeuristicTaken(c.id)
	if !taken {
		return
	}
	damage := tookCommit != commit
	rep := protocol.HeuristicReport{Node: string(n.id), Committed: tookCommit, Damage: damage}
	c.status.Heuristics = append(c.status.Heuristics, rep)
	n.eng.met.Heuristic(string(n.id), tookCommit)
	if damage {
		n.eng.met.Damage(string(n.id))
		n.trcApp("HEURISTIC DAMAGE at resource " + r.Name())
	}
	if f, ok := r.(interface{ Forget(protocol.TxID) }); ok {
		f.Forget(c.id)
	}
}

// handleOutcomeMsg processes a Commit or Abort arriving from the
// network.
func (n *Node) handleOutcomeMsg(from protocol.NodeID, m protocol.Message, commit bool) {
	tx := protocol.ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		// Forgotten or never known: idempotent completion. A logless
		// voter that restarted knows nothing, and the coordinator's
		// retransmitted Commit is its durability: it installs the
		// outcome before acking, since the Ack releases the coordinator's
		// record. Nodes in n.done (rebuilt from the log) just re-ack.
		v := n.eng.cfg.Variant
		if commit && !v.SubPrepare(true).Prepared {
			if _, known := n.done[tx]; !known {
				n.logRec(tx, recCommitted, recPayload{Coord: from}, false)
				n.logRec(tx, recEnd, recPayload{}, false)
				n.done[tx] = OutcomeCommitted
			}
		}
		// Ack if the sender can be waiting for one.
		if v.Acks(commit) {
			n.send(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
		}
		return
	}
	switch c.state {
	case stDelegated:
		n.coordinatorOutcome(c, commit)
	case stPrepared, stInDoubt:
		n.receivedDecision(c, commit)
	case stHeurDone:
		n.resolveHeuristic(c, commit)
	case stPreparing, stActive:
		if n.eng.cfg.Variant == protocol.VariantPaxos {
			// A recovery leader resolved the transaction from the
			// acceptor quorum while this node (possibly the ballot-0
			// coordinator itself) was still collecting — either outcome
			// is quorum-backed and final.
			n.receivedDecision(c, commit)
			return
		}
		if !commit {
			// An abort can overtake the voting phase (another
			// participant voted no, or the coordinator timed out).
			c.haveCoord = true
			if c.coord == "" {
				c.coord = from
			}
			n.receivedDecision(c, false)
		}
	case stCommitting, stCompleted:
		// Duplicate outcome (coordinator recovery resend): re-ack.
		if c.ackSent || c.state == stCompleted {
			if n.eng.cfg.Variant.Acks(commit) {
				n.send(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx, Heuristics: c.status.Heuristics})
			}
		}
	}
}

// coordinatorOutcome resumes a delegating coordinator when its last
// agent reports the decision.
func (n *Node) coordinatorOutcome(c *txCtx, commit bool) {
	if c.decided {
		return
	}
	c.decided = true
	c.decisionCommit = commit
	n.trcDecision(c, commit)
	n.disarmHeuristic(c)
	d := n.eng.cfg.Variant.Decide(commit, protocol.Round{ReadOnly: c.votedReadOnly, Logged: c.loggedAny})
	n.logOutcome(c, commit, d.Write, recPayload{Coord: c.coord, Subs: c.yesSubIDs(c.coord)})
	n.phase2(c)
}

// handleAck processes a subordinate's acknowledgment.
func (n *Node) handleAck(from protocol.NodeID, m protocol.Message) {
	tx := protocol.ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return // already complete: stray or duplicate ack
	}
	s := c.sub(from)
	if !s.ackExpected || s.acked {
		// Unexpected ack (e.g. we gave up on this sub): still merge
		// damage reports so nothing is silently lost.
		n.mergeAckStatus(c, m)
		return
	}
	s.acked = true
	c.acksPending--
	n.mergeAckStatus(c, m)
	n.checkAcks(c)
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
	if c.state != stCommitting || c.acksPending > 0 {
		return
	}
	c.ackTimerGen++ // disarm retries
	if c.isRoot || (c.lastAgentAsked && c.haveCoord) {
		// Decision owner (or the delegating coordinator, handled via
		// isRoot): complete the application, then forget.
		if c.isRoot {
			n.completeApp(c, c.status)
		}
		if c.awaitingImplied {
			c.state = stCompleted
			n.trcState(c.id, "completed, awaiting implied ack")
			return
		}
		n.writeEndAndForget(c)
		return
	}
	if !c.haveCoord {
		n.writeEndAndForget(c)
		return
	}
	// Subordinate: acknowledge upstream per the ack policy. Read-only
	// voters are out of phase two entirely, an early ack has already
	// gone out, and an outcome the variant does not acknowledge closes
	// out at once.
	opts := n.eng.cfg.Options
	switch {
	case c.votedReadOnly, c.ackSent, !n.acksUpstream(c):
		n.writeEndAndForget(c)
	case c.decisionCommit && opts.VoteReliable && c.votedReliable:
		// Reliable subtree: no explicit ack; the implied ack (next
		// data, or session close) lets us forget (§4 Vote Reliable).
		c.state = stCompleted
		c.awaitingImplied = true
		c.impliedFrom = c.coord
		n.trcState(c.id, "reliable: ack implied")
	case c.decisionCommit && opts.LongLocks && c.longLocksAsked:
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

// acksUpstream reports whether this subordinate acknowledges its
// transaction's outcome.
func (n *Node) acksUpstream(c *txCtx) bool {
	return n.eng.cfg.Variant.Apply(c.decisionCommit, c.loggedAny, true).Ack
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
	outcome := OutcomeAborted
	if c.decisionCommit {
		outcome = OutcomeCommitted
	}
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
	if c.loggedAny {
		n.logRec(c.id, recEnd, recPayload{}, false)
	}
	outcome := OutcomeAborted
	if c.decisionCommit {
		outcome = OutcomeCommitted
	}
	n.forget(c, outcome, true)
}

// forget removes the transaction context, recording the outcome for
// duplicate handling, and applies leave-out bookkeeping.
func (n *Node) forget(c *txCtx, outcome Outcome, record bool) {
	if record {
		n.done[c.id] = outcome
	}
	opts := n.eng.cfg.Options
	if opts.LeaveOut && c.decided && c.decisionCommit {
		for _, s := range c.orderedSubs() {
			if c.haveCoord && s.id == c.coord {
				continue
			}
			if s.voted && s.okToLeave && s.vote != protocol.VoteNo {
				l := n.link(s.id)
				l.dormant = true
				l.okToLeaveOut = true
				n.trcApp("partner " + string(s.id) + " left dormant (ok-to-leave-out)")
			}
		}
	}
	// A subordinate that promised OK-to-leave-out suspends itself.
	if opts.LeaveOut && c.haveCoord && c.allLeaveOut && c.decided && c.decisionCommit && !c.isRoot {
		n.suspendTowards(c.coord)
	}
	delete(n.txs, c.id)
}

// armAckTimer schedules phase-two re-contact for unacked subs.
func (n *Node) armAckTimer(c *txCtx) {
	c.ackTimerGen++
	gen := c.ackTimerGen
	n.afterTx(c, n.eng.cfg.AckTimeout, func(at time.Duration) {
		if c.ackTimerGen == gen && c.state == stCommitting && c.acksPending > 0 {
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
	out := protocol.OutcomeMessage(c.id.String(), c.decisionCommit)
	maxAttempts := cfg.MaxRecoveryAttempts
	if maxAttempts <= 0 {
		maxAttempts = 10
	}
	failedOnce := false
	for _, s := range c.orderedSubs() {
		if !s.ackExpected || s.acked || s.longLocks {
			continue
		}
		s.attempts++
		if s.attempts >= 2 {
			failedOnce = true
		}
		if s.attempts >= maxAttempts {
			// Operator intervention: stop waiting for this subtree.
			n.trcApp("giving up on " + string(s.id) + " after " + strconv.Itoa(s.attempts) + " attempts")
			s.ackExpected = false
			c.acksPending--
			c.status.RecoveryPending = true
			continue
		}
		n.trcApp("re-contacting " + string(s.id) + " (attempt " + strconv.Itoa(s.attempts) + ")")
		n.send(s.id, out)
	}
	if cfg.Options.WaitForOutcome && failedOnce && c.acksPending > 0 {
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
		if !c.isRoot && c.haveCoord && !c.ackSent && !c.votedReadOnly {
			n.sendAckUpstream(c)
		}
	}
	if c.awaitsRetriableAcks() {
		n.armAckTimer(c)
	} else {
		n.checkAcks(c)
	}
}
