package core

// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
// each participant's vote is one Paxos instance replicated across
// 2f+1 acceptors colocated on the transaction's nodes. The
// coordinator is merely the initial (ballot-0) leader; after it
// crashes, any prepared participant leads a recovery round and learns
// the outcome from an acceptor quorum — no blocking window, at the
// cost of one extra message delay and the acceptor forces.
//
// Fast path (ballot 0), flat tree with coordinator C and subs S1..Sn:
//
//	C --Prepare(meta)--> Si          (n flows)
//	Si: force Prepared, then send its instance's ballot-0 accept
//	    to every acceptor             (a or a-1 flows each)
//	acceptor: once every instance has reported, force ONE bundled
//	    PaxAccept record and send ONE bundled PaxosAccepted to C
//	C: f+1 bundles per instance -> decide; Commit to subs (n flows)
//
// Abort safety: once any instance may have been accepted anywhere,
// nobody may abort unilaterally — a recovery leader is obliged to
// re-propose the maximum-ballot accepted value it hears about, so a
// unilateral abort could split the outcome. Every timeout therefore
// runs the same recovery round: PaxosQuery(b) to the acceptors, a
// promise quorum, the value-choice rule, then ballot-b accepts until
// every instance has an f+1 quorum.
//
// The rules themselves (acceptor set, quorum, ballots, accept and
// promise, restore, tally, value choice) are protocol.PaxosTx and
// protocol.PaxosRound, shared with the live runtime; this file is the
// simulator's driver: messages, records, timers.

import (
	"strconv"
	"time"

	"repro/internal/protocol"
)

// paxosCtx is a Paxos Commit transaction's state at this node: the
// shared participant and acceptor state, plus the round it leads.
type paxosCtx struct {
	protocol.PaxosTx
	round    *protocol.PaxosRound // the ballot this node leads (nil: not leading)
	timerGen int
}

// paxos returns c's Paxos state, creating it on first use.
func (n *Node) paxos(c *txCtx) *paxosCtx {
	if c.pax == nil {
		h := n.eng.cfg.Hooks
		c.pax = &paxosCtx{PaxosTx: protocol.PaxosTx{
			Self:              string(n.id),
			SkipAcceptorForce: h.SkipAcceptorForce,
			QuorumOverride:    h.QuorumOverride,
		}}
	}
	return c.pax
}

// runPaxosPhase1 is the coordinator's fast path: no pre-force (the
// acceptor quorum is the durable truth), Prepares announce the
// acceptor membership, and the coordinator's own instance value goes
// to the acceptors at ballot 0 alongside everyone else's.
func (n *Node) runPaxosPhase1(c *txCtx, members []*subInfo) {
	c.state = stPreparing
	subs := memberIDs(members)
	px := n.paxos(c)
	px.Adopt(protocol.PaxosAcceptorSet(string(n.id), subs), append([]string{string(n.id)}, subs...))
	px.round = px.NewRound(0)
	payload := px.Meta(0, string(n.id)).Encode()
	c.round.Begin(protocol.VariantPaxos, subs, "")
	c.round.Ask()
	for _, s := range members {
		n.send(s.id, protocol.Message{
			Type:    protocol.MsgPrepare,
			Tx:      c.id.String(),
			Presume: protocol.VariantPaxos,
			Payload: payload,
		})
	}
	n.prepareLocal(c)
	px.Vote = c.round.Fold()
	if px.Vote != protocol.VoteNo {
		px.Vote = protocol.VoteYes
	}
	n.paxosSendAccept0(c)
	n.armPaxosTimer(c, n.eng.cfg.VoteTimeout, "paxos: fast path overdue, starting recovery round for "+c.id.String())
}

// paxosVoteUpstream replaces the MsgVote of the classic variants: a
// prepared subordinate makes its instance value known to the
// acceptors instead of to the coordinator alone.
func (n *Node) paxosVoteUpstream(c *txCtx) {
	px := n.paxos(c)
	if c.round.Fold() == protocol.VoteNo {
		// A No voter may abort unilaterally: its instance value No is
		// on its way to the acceptors, and recovery defaults a free
		// instance to No — either way the transaction cannot commit.
		px.Vote = protocol.VoteNo
		n.paxosSendAccept0(c)
		n.takeOutcome(c, false, false, protocol.NoWrite)
		return
	}
	// Read-only folds to Yes under Paxos: instances carry only Yes/No
	// and every participant sees phase two.
	membership := px.Meta(0, "")
	n.logTx(c, protocol.LogRecord{Kind: protocol.RecPrepared, Coord: string(c.coord), Paxos: &membership}, true)
	c.state = stPrepared
	px.Vote = protocol.VoteYes
	n.paxosSendAccept0(c)
	n.armHeuristic(c)
	n.armOutcomeWatch(c)
}

// paxosSendAccept0 sends this participant's ballot-0 accept for its
// own instance to every acceptor (applying it locally when this node
// is itself an acceptor).
func (n *Node) paxosSendAccept0(c *txCtx) {
	px := n.paxos(c)
	if px.VoteSent {
		return
	}
	px.VoteSent = true
	meta := px.Meta(0, px.Participants[0])
	meta.Instance = string(n.id)
	n.paxosBroadcastAccept(c, meta, px.Vote)
}

// paxosBroadcastAccept sends an accept of meta.Instance's value to
// every acceptor, applying it here when this node is one.
func (n *Node) paxosBroadcastAccept(c *txCtx, meta protocol.PaxosMeta, vote protocol.VoteValue) {
	payload := meta.Encode()
	for _, a := range c.pax.Acceptors {
		if a == c.pax.Self {
			n.paxosAcceptLocal(c, meta, vote)
			continue
		}
		n.send(protocol.NodeID(a), protocol.Message{
			Type: protocol.MsgPaxosAccept, Tx: c.id.String(),
			Vote: vote, Payload: payload,
		})
	}
}

// ---- Acceptor role ----

// handlePaxosAccept processes a ballot-b accept request at an
// acceptor. A finished node short-circuits with the known outcome.
func (n *Node) handlePaxosAccept(from protocol.NodeID, m protocol.Message) {
	c, meta, ok := n.paxosAcceptorCtx(from, m)
	if ok {
		n.paxosAcceptLocal(c, meta, m.Vote)
	}
}

// handlePaxosQuery processes a recovery leader's phase-1a request.
func (n *Node) handlePaxosQuery(from protocol.NodeID, m protocol.Message) {
	c, meta, ok := n.paxosAcceptorCtx(from, m)
	if ok {
		n.paxosPromiseLocal(c, meta)
	}
}

// paxosAcceptorCtx decodes an accept or query and finds its
// transaction, learning the membership it carries; ok is false when
// the request was malformed or a known outcome already answered it.
func (n *Node) paxosAcceptorCtx(from protocol.NodeID, m protocol.Message) (*txCtx, protocol.PaxosMeta, bool) {
	tx := protocol.ParseTxID(m.Tx)
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return nil, meta, false
	}
	if o, ok := n.done[tx]; ok {
		n.paxosReplyOutcome(protocol.NodeID(meta.Leader), from, tx, o)
		return nil, meta, false
	}
	c := n.ctx(tx)
	n.paxos(c).Adopt(meta.Acceptors, meta.Participants)
	if c.decided {
		o := OutcomeAborted
		if c.decisionCommit {
			o = OutcomeCommitted
		}
		n.paxosReplyOutcome(protocol.NodeID(meta.Leader), from, tx, o)
		return nil, meta, false
	}
	return c, meta, true
}

// paxosAcceptLocal and paxosPromiseLocal apply the acceptor's accept
// and promise rules and do what they ask.
func (n *Node) paxosAcceptLocal(c *txCtx, meta protocol.PaxosMeta, vote protocol.VoteValue) {
	if step, ok := c.pax.Accept(meta.Ballot, meta.Instance, vote); ok {
		n.paxosStep(c, protocol.RecPaxAccept, protocol.NodeID(meta.Leader), step)
	}
}

func (n *Node) paxosPromiseLocal(c *txCtx, meta protocol.PaxosMeta) {
	if step, ok := c.pax.Promise(meta.Ballot); ok {
		n.paxosStep(c, protocol.RecPaxPromise, protocol.NodeID(meta.Leader), step)
	}
}

// paxosStep writes an acceptor step's record (kind PaxAccept or
// PaxPromise), then reports its states to the ballot's leader.
func (n *Node) paxosStep(c *txCtx, kind string, leader protocol.NodeID, step protocol.PaxosStep) {
	px := c.pax
	n.logTx(c, px.Record(kind, step), step.Force)
	reply := px.Meta(step.Ballot, string(leader))
	reply.States = step.States
	switch {
	case leader == n.id && kind == protocol.RecPaxAccept:
		n.paxosLeaderAcks(c, n.id, reply)
	case leader == n.id:
		n.paxosLeaderPromise(c, n.id, reply)
	case kind == protocol.RecPaxAccept:
		n.send(leader, protocol.Message{
			Type: protocol.MsgPaxosAccepted, Tx: c.id.String(),
			Vote: step.Vote(), Payload: reply.Encode(),
		})
	default:
		n.send(leader, protocol.Message{Type: protocol.MsgPaxosPromise, Tx: c.id.String(), Payload: reply.Encode()})
	}
}

// paxosReplyOutcome answers Paxos traffic for a transaction this node
// already finished: the plain recovery outcome resolves the asker.
func (n *Node) paxosReplyOutcome(leader, from protocol.NodeID, tx protocol.TxID, o Outcome) {
	to := leader
	if to == "" || to == n.id {
		to = from
	}
	if to == n.id {
		return
	}
	kind := protocol.OutcomeUnknown
	switch o {
	case OutcomeCommitted, OutcomeHeuristicMixed:
		kind = protocol.OutcomeCommit
	case OutcomeAborted:
		kind = protocol.OutcomeAbort
	}
	if kind == protocol.OutcomeUnknown {
		return
	}
	n.send(to, protocol.Message{Type: protocol.MsgOutcome, Tx: tx.String(), Outcome: kind})
}

// ---- Leader role ----

// handlePaxosAccepted and handlePaxosPromise deliver acceptor replies
// to the ballot's leader.
func (n *Node) handlePaxosAccepted(from protocol.NodeID, m protocol.Message) {
	if c, meta, ok := n.paxosLeaderCtx(m); ok {
		n.paxosLeaderAcks(c, from, meta)
	}
}

func (n *Node) handlePaxosPromise(from protocol.NodeID, m protocol.Message) {
	if c, meta, ok := n.paxosLeaderCtx(m); ok {
		n.paxosLeaderPromise(c, from, meta)
	}
}

// paxosLeaderCtx decodes a reply for a transaction this node holds.
func (n *Node) paxosLeaderCtx(m protocol.Message) (*txCtx, protocol.PaxosMeta, bool) {
	c, ok := n.txs[protocol.ParseTxID(m.Tx)]
	if !ok {
		return nil, protocol.PaxosMeta{}, false
	}
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	return c, meta, err == nil
}

// paxosLeaderAcks folds one acceptor's acknowledgment into the round
// this node leads and decides once every instance has a quorum.
func (n *Node) paxosLeaderAcks(c *txCtx, from protocol.NodeID, meta protocol.PaxosMeta) {
	px := c.pax
	if px == nil || px.round == nil || c.decided {
		return
	}
	if commit, ok := px.round.Ack(string(from), meta.Ballot, meta.States); ok {
		n.paxosLeaderDecide(c, commit)
	}
}

// paxosLeaderDecide applies a quorum-backed decision at the leader
// and propagates it to every participant. The outcome record is
// written lazily: the acceptor quorum, not this node's log, is the
// durable truth.
func (n *Node) paxosLeaderDecide(c *txCtx, commit bool) {
	if c.decided {
		return
	}
	c.pax.timerGen++ // disarm pending fast-path/recovery timers
	if c.isRoot {
		if c.round.Subs == nil {
			// Restarted: the round begins again from the membership.
			c.round.Begin(protocol.VariantPaxos, c.pax.Participants[1:], "")
			c.round.Ask()
		}
		if commit {
			yes := protocol.Message{Type: protocol.MsgVote, Vote: protocol.VoteYes}
			for _, p := range c.round.Subs {
				c.round.Vote(p, &yes)
			}
		}
		n.ownDecision(c, commit)
		return
	}
	// Subordinate-led recovery: resolve the others too — the whole
	// point of the acceptor quorum is that the outcome no longer
	// depends on any one node.
	out := protocol.OutcomeMessage(c.id.String(), commit)
	for _, p := range c.pax.Participants {
		if protocol.NodeID(p) == n.id {
			continue
		}
		n.send(protocol.NodeID(p), out)
	}
	n.receivedDecision(c, commit)
}

// paxosLeaderPromise collects promises; at a quorum it sends the
// round's proposal — one ballot-b accept per instance to every
// acceptor.
func (n *Node) paxosLeaderPromise(c *txCtx, from protocol.NodeID, meta protocol.PaxosMeta) {
	px := c.pax
	if px == nil || px.round == nil || c.decided {
		return
	}
	prop := px.round.Promise(string(from), meta.Ballot, meta.States)
	if prop == nil {
		return
	}
	n.trcApp("paxos: ballot " + strconv.Itoa(px.round.Ballot) + " proposing for " + c.id.String())
	for _, st := range prop {
		am := px.Meta(st.Ballot, px.Self)
		am.Instance = st.Instance
		n.paxosBroadcastAccept(c, am, st.Vote)
	}
}

// ---- Recovery rounds and timers ----

// startPaxosRecovery leads one recovery round from this participant
// at its next ballot: queries to every acceptor, then a timer that
// retries at a higher ballot if the round stalls (lost messages, a
// competing leader, crashed acceptors below quorum that later restart).
func (n *Node) startPaxosRecovery(c *txCtx) {
	px := c.pax
	if c.decided || n.crashed || px == nil || len(px.Acceptors) == 0 {
		return
	}
	ballot, ok := px.NextBallot()
	if !ok {
		n.trcApp("paxos: giving up recovery for " + c.id.String() + " (operator needed)")
		return
	}
	px.round = px.NewRound(ballot)
	n.trcApp("paxos: recovery round ballot " + strconv.Itoa(ballot) + " for " + c.id.String())
	meta := px.Meta(ballot, px.Self)
	payload := meta.Encode()
	for _, a := range px.Acceptors {
		if a == px.Self {
			n.paxosPromiseLocal(c, meta)
			continue
		}
		n.send(protocol.NodeID(a), protocol.Message{Type: protocol.MsgPaxosQuery, Tx: c.id.String(), Payload: payload})
	}
	n.armPaxosTimer(c, 2*n.eng.cfg.InquireRetry, "")
}

// armPaxosTimer starts a recovery round after the given delay unless
// the transaction is decided first or another timer supersedes this
// one. The coordinator's fast path arms it with the vote timeout — it
// may NOT abort unilaterally once accepts may exist — and a restart
// with the inquiry delay, staggered like scheduleInquiry.
func (n *Node) armPaxosTimer(c *txCtx, after time.Duration, note string) {
	px := n.paxos(c)
	px.timerGen++
	gen := px.timerGen
	n.afterTx(c, after, func(at time.Duration) {
		if px.timerGen != gen || c.decided {
			return
		}
		n.eng.arriveAt(n, at)
		if note != "" {
			n.trcApp(note)
		}
		n.startPaxosRecovery(c)
	})
}
