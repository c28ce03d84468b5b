package core

import (
	"encoding/json"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// txScan is the recovery view of one transaction, folded from this
// node's durable log records.
type txScan struct {
	order     int
	pending   *recPayload // CommitPending or AgentPending
	prepared  *recPayload
	committed *recPayload
	aborted   *recPayload
	heuristic *recPayload
	end       bool

	// Paxos Commit acceptor state (VariantPaxos).
	paxAccepts []*recPayload // every PaxAccept record, in log order
	paxPromise *recPayload   // highest-ballot PaxPromise
}

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
	scans := make(map[string]*txScan)
	var order []string
	for i, rec := range recs {
		if rec.Node != string(n.id) {
			continue // records written by co-located LRMs
		}
		var p recPayload
		switch rec.Kind {
		case recCommitPending, recAgentPending, recPrepared, recCommitted, recAborted, recHeuristic,
			recPaxAccept, recPaxPromise:
			if err := json.Unmarshal(rec.Data, &p); err != nil {
				n.trcApp("restart: bad record payload for " + rec.Tx)
				continue
			}
		case recEnd:
			// no payload
		default:
			continue // LRM record kinds
		}
		sc, ok := scans[rec.Tx]
		if !ok {
			sc = &txScan{order: i}
			scans[rec.Tx] = sc
			order = append(order, rec.Tx)
		}
		switch rec.Kind {
		case recCommitPending, recAgentPending:
			cp := p
			sc.pending = &cp
		case recPrepared:
			cp := p
			sc.prepared = &cp
		case recCommitted:
			cp := p
			sc.committed = &cp
		case recAborted:
			cp := p
			sc.aborted = &cp
		case recHeuristic:
			cp := p
			sc.heuristic = &cp
		case recPaxAccept:
			cp := p
			sc.paxAccepts = append(sc.paxAccepts, &cp)
		case recPaxPromise:
			cp := p
			if sc.paxPromise == nil || cp.Ballot > sc.paxPromise.Ballot {
				sc.paxPromise = &cp
			}
		case recEnd:
			sc.end = true
		}
	}
	for _, txs := range order {
		n.recoverTx(ParseTxID(txs), scans[txs])
	}
}

// recoverTx reinstates one transaction from its scan.
func (n *Node) recoverTx(tx TxID, sc *txScan) {
	switch {
	case sc.end:
		// Fully complete; remember the outcome for duplicate traffic.
		switch {
		case sc.committed != nil:
			n.done[tx] = OutcomeCommitted
		case sc.aborted != nil:
			n.done[tx] = OutcomeAborted
		default:
			n.done[tx] = OutcomeUnknown
		}

	case sc.heuristic != nil:
		// A unilateral decision was taken and the real outcome is
		// still unknown: reinstate and inquire so damage can be
		// detected and reported.
		c := n.ctx(tx)
		c.state = stHeurDone
		c.loggedAny = true
		c.myHeuristic = &HeuristicReport{Node: n.id, Committed: sc.heuristic.Commit}
		c.coord = sc.heuristic.Coord
		c.haveCoord = c.coord != ""
		if c.haveCoord {
			n.scheduleInquiry(c, 0)
		}

	case sc.committed != nil:
		n.resumeOutcome(tx, sc.committed, true)

	case sc.aborted != nil:
		n.resumeOutcome(tx, sc.aborted, false)

	case n.eng.cfg.Variant == VariantPaxos &&
		(len(sc.paxAccepts) > 0 || sc.paxPromise != nil ||
			(sc.prepared != nil && len(sc.prepared.Acceptors) > 0)):
		n.recoverPaxosTx(tx, sc)

	case sc.prepared != nil:
		if sc.prepared.Agent != "" {
			// We delegated to a last agent and crashed before
			// learning the decision: the agent owns the outcome.
			c := n.ctx(tx)
			c.state = stInDoubt
			c.loggedAny = true
			c.coord = sc.prepared.Agent // inquire the decision owner
			c.haveCoord = true
			c.lastAgentRecovery = true
			for _, s := range sc.prepared.Subs {
				c.sub(s).voted = true
				c.sub(s).vote = VoteYes
			}
			n.scheduleInquiry(c, 0)
			return
		}
		// In doubt: voted yes, outcome unknown. Reinstate and inquire
		// the coordinator.
		c := n.ctx(tx)
		c.state = stInDoubt
		c.loggedAny = true
		c.coord = sc.prepared.Coord
		c.haveCoord = c.coord != ""
		for _, s := range sc.prepared.Subs {
			c.sub(s).voted = true
			c.sub(s).vote = VoteYes
		}
		n.trcState(tx, "in doubt after restart")
		if c.haveCoord {
			n.scheduleInquiry(c, 0)
		}
		n.armHeuristic(c)

	case sc.pending != nil:
		// PN coordinator (or leaf that crashed between its pending
		// and prepared forces).
		if sc.pending.Agent != "" {
			// The pending record covers a delegation: the agent may
			// have decided; inquire rather than presume.
			c := n.ctx(tx)
			c.state = stInDoubt
			c.loggedAny = true
			c.coord = sc.pending.Agent
			c.haveCoord = true
			c.lastAgentRecovery = true
			n.scheduleInquiry(c, 0)
			return
		}
		if len(sc.pending.Subs) > 0 {
			// Coordinator crashed during phase one: no decision was
			// made, so abort — and, presuming nothing, drive every
			// subordinate to the abort and collect their
			// acknowledgments (they may hold heuristic reports).
			c := n.ctx(tx)
			c.loggedAny = true
			c.coord = sc.pending.Coord
			c.haveCoord = c.coord != ""
			c.isRoot = !c.haveCoord
			for _, s := range sc.pending.Subs {
				si := c.sub(s)
				si.prepareSent = true
				si.voted = true
				si.vote = VoteYes
			}
			n.trcState(tx, "PN recovery: aborting phase-one transaction")
			n.ownDecision(c, false)
			return
		}
		// A leaf's AgentPending with no prepared record: the vote
		// never left, the coordinator will have aborted. Nothing to do.
		n.done[tx] = OutcomeAborted
	}
}

// recoverPaxosTx reinstates an undecided Paxos Commit transaction from
// the node's durable acceptor and participant records: the node comes
// back in doubt, restores its acceptor state (promised ballot and
// accepted instance values), and leads a staggered recovery round to
// learn the outcome from the acceptor quorum.
func (n *Node) recoverPaxosTx(tx TxID, sc *txScan) {
	c := n.ctx(tx)
	c.loggedAny = true
	c.state = stInDoubt

	// Membership travels on every durable Paxos record; the first
	// record carrying it sticks.
	px := n.paxos(c)
	if sc.prepared != nil {
		px.Adopt(sc.prepared.Acceptors, sc.prepared.Participants)
		c.coord = sc.prepared.Coord
		c.haveCoord = c.coord != ""
		px.Vote = protocol.VoteYes // our Prepared record survived
	} else {
		// Crashed before (or without) preparing: the local resources
		// lost their prepared state, so our own instance can only be
		// re-proposed as No — unless an acceptor already holds it.
		px.Vote = protocol.VoteNo
	}
	px.VoteSent = true
	for _, p := range sc.paxAccepts {
		px.Adopt(p.Acceptors, p.Participants)
		px.Restore(true, p.Ballot, instStates(p.Insts))
	}
	if p := sc.paxPromise; p != nil {
		px.Adopt(p.Acceptors, p.Participants)
		px.Restore(false, p.Ballot, instStates(p.Insts))
	}
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
// record survived: subordinates are re-notified (idempotently), acks
// re-collected, and — for a subordinate — the ack upstream re-sent.
func (n *Node) resumeOutcome(tx TxID, p *recPayload, commit bool) {
	c := n.ctx(tx)
	c.decided = true
	c.decisionCommit = commit
	n.trcDecision(c, commit)
	c.loggedAny = true
	c.coord = p.Coord
	c.haveCoord = p.Coord != ""
	c.isRoot = !c.haveCoord
	c.state = stCommitting
	n.trcState(tx, "restart: resuming phase two")

	mt := protocol.MsgAbort
	if commit {
		mt = protocol.MsgCommit
	}
	for _, id := range p.Subs {
		s := c.sub(id)
		s.voted = true
		s.vote = VoteYes
		n.send(id, protocol.Message{Type: mt, Tx: tx.String()})
		if n.expectsAck(s, commit) {
			s.ackExpected = true
			c.acksPending++
		}
	}
	// Local resources are re-driven; completed ones treat this as a
	// duplicate.
	for _, r := range n.resources {
		c.resources = append(c.resources, r)
		c.resVotes = append(c.resVotes, PrepareResult{Vote: VoteYes})
		var err error
		if commit {
			err = r.Commit(tx)
		} else {
			err = r.Abort(tx)
		}
		if err != nil {
			n.noteResourceHeuristic(c, r, commit, err)
		}
	}
	n.trcUnlock(tx, "released")
	if !c.isRoot && !c.ackSent && n.eng.cfg.Variant.Row().AcksAny() {
		// Our coordinator may still be waiting for our ack. It goes
		// out whichever the outcome, unless the variant acks neither.
		n.sendAckUpstream(c)
	}
	if c.acksPending > 0 {
		n.armAckTimer(c)
	}
	n.checkAcks(c)
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
	delay := cfg.InquireRetry * time.Duration(1+dur(extraDelay))
	at := n.localTime + delay
	n.eng.queue.pushTimer(at, n.id, func() {
		if n.crashed {
			return
		}
		cur, ok := n.txs[c.id]
		if !ok || cur != c {
			return
		}
		switch c.state {
		case stInDoubt, stPrepared, stHeurDone:
			n.eng.arriveAt(n, at)
			n.send(c.coord, protocol.Message{Type: protocol.MsgInquire, Tx: c.id.String()})
		}
	})
}

func dur(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// handleInquire answers a recovery inquiry using local state, the
// recovered outcome table, or — failing those — the variant's
// presumption.
func (n *Node) handleInquire(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	reply := func(kind protocol.OutcomeKind) {
		n.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: kind})
	}
	if c, ok := n.txs[tx]; ok {
		if c.decided {
			if c.decisionCommit {
				reply(protocol.OutcomeCommit)
			} else {
				reply(protocol.OutcomeAbort)
			}
			return
		}
		reply(protocol.OutcomeInProgress)
		return
	}
	if o, ok := n.done[tx]; ok {
		switch o {
		case OutcomeCommitted, OutcomeHeuristicMixed:
			reply(protocol.OutcomeCommit)
		case OutcomeAborted:
			reply(protocol.OutcomeAbort)
		default:
			reply(protocol.OutcomeUnknown)
		}
		return
	}
	// No information at all: the presumption. Presumed abort (PA,
	// 1PC) is what makes the logless 1PC voter safe: had the
	// coordinator decided commit, its forced decision record would
	// still be here. Presumed commit: the collecting record precedes
	// every prepare, so total amnesia for a prepared inquirer can only
	// mean the transaction passed phase one everywhere and the End was
	// written. Baseline and Paxos presume nothing: the inquirer stays
	// blocked (the baseline's classic weakness). PN presumes "still in
	// progress"; the inquirer asks again on that exactly as on Unknown.
	reply(n.eng.cfg.Variant.Row().NoInfo)
}

// handleOutcomeReply resolves an in-doubt transaction with the answer
// to its inquiry.
func (n *Node) handleOutcomeReply(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return
	}
	switch m.Outcome {
	case protocol.OutcomeCommit, protocol.OutcomeAbort:
		commit := m.Outcome == protocol.OutcomeCommit
		switch c.state {
		case stHeurDone:
			n.resolveHeuristic(c, commit)
		case stInDoubt, stPrepared:
			if c.lastAgentRecovery {
				// We were the delegating coordinator: the agent's
				// answer is the decision; resume as decision owner.
				n.coordinatorOutcome(c, commit)
				return
			}
			n.receivedDecision(c, commit)
		case stPreparing:
			// A Paxos coordinator still collecting acceptances can be
			// resolved by a done participant's outcome short-circuit.
			if n.eng.cfg.Variant == VariantPaxos {
				n.receivedDecision(c, commit)
			}
		}
	case protocol.OutcomeInProgress, protocol.OutcomeUnknown:
		// Ask again later (bounded); heuristic policy may intervene.
		if n.eng.cfg.Variant == VariantPaxos {
			n.armPaxosTimer(c, n.eng.cfg.InquireRetry, "")
			return
		}
		n.scheduleInquiry(c, 1)
	}
}
