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
// The acceptor set is the first 2f+1 of [C, S1, S2, ...]: three nodes
// (f=1) whenever the tree has at least two subordinates, otherwise
// just the coordinator (f=0 — a two-node tree has no third node to
// colocate an acceptor on).
//
// Abort safety: once any instance may have been accepted anywhere,
// nobody may abort unilaterally — a recovery leader is obliged to
// re-propose the maximum-ballot accepted value it hears about, so a
// unilateral abort could split the outcome. Every timeout therefore
// runs the same recovery round: PaxosQuery(b) to the acceptors, a
// promise quorum, the Gray-Lamport value-choice rule (re-propose the
// max-ballot accepted value; a free instance defaults to No), then
// ballot-b accepts until every instance has an f+1 quorum.

import (
	"strconv"

	"repro/internal/protocol"
)

// paxosAcceptors picks the 2f+1 acceptor membership for a flat tree.
func paxosAcceptors(coord NodeID, members []NodeID) []NodeID {
	if len(members) < 2 {
		return []NodeID{coord}
	}
	return []NodeID{coord, members[0], members[1]}
}

// paxosQuorum is f+1 of the 2f+1 acceptors — unless the harness
// injected a miscounted quorum to prove the oracle convicts it.
func (n *Node) paxosQuorum(c *txCtx) int {
	if q := n.eng.cfg.Hooks.QuorumOverride; q > 0 {
		return q
	}
	return len(c.paxAcceptors)/2 + 1
}

func nodeStrings(ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func nodeIDs(ss []string) []NodeID {
	out := make([]NodeID, len(ss))
	for i, s := range ss {
		out[i] = NodeID(s)
	}
	return out
}

func indexOfNode(ids []NodeID, id NodeID) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}

// paxosAdoptMeta learns the transaction's acceptor and instance
// membership from any Paxos message carrying it (an acceptor may hear
// an accept before its own Prepare arrives).
func (n *Node) paxosAdoptMeta(c *txCtx, meta protocol.PaxosMeta) {
	if len(c.paxAcceptors) == 0 && len(meta.Acceptors) > 0 {
		c.paxAcceptors = nodeIDs(meta.Acceptors)
	}
	if len(c.paxParticipants) == 0 && len(meta.Participants) > 0 {
		c.paxParticipants = nodeIDs(meta.Participants)
	}
}

func (c *txCtx) paxosMeta(ballot int, leader NodeID) protocol.PaxosMeta {
	return protocol.PaxosMeta{
		Ballot:       ballot,
		Leader:       string(leader),
		Acceptors:    nodeStrings(c.paxAcceptors),
		Participants: nodeStrings(c.paxParticipants),
	}
}

// runPaxosPhase1 is the coordinator's fast path: no pre-force (the
// acceptor quorum is the durable truth), Prepares announce the
// acceptor membership, and the coordinator's own instance value goes
// to the acceptors at ballot 0 alongside everyone else's.
func (n *Node) runPaxosPhase1(c *txCtx, members []*subInfo) {
	c.state = stPreparing
	ids := memberIDs(members)
	c.paxAcceptors = paxosAcceptors(n.id, ids)
	c.paxParticipants = append([]NodeID{n.id}, ids...)
	c.paxLeading = true
	c.paxBallot = 0
	c.paxAcks = make(map[NodeID]map[NodeID]bool)
	c.paxProposal = make(map[NodeID]Vote)
	meta := c.paxosMeta(0, n.id)
	payload := meta.Encode()
	for _, s := range members {
		s.prepareSent = true
		n.send(s.id, protocol.Message{
			Type:    protocol.MsgPrepare,
			Tx:      c.id.String(),
			Presume: protocol.VariantPaxos,
			Payload: payload,
		})
	}
	n.prepareLocal(c)
	c.paxVote = VoteYes
	if c.anyNo {
		c.paxVote = VoteNo
	}
	n.paxosSendAccept0(c)
	n.armPaxosFastTimer(c)
}

// paxosVoteUpstream replaces the MsgVote of the classic variants: a
// prepared subordinate makes its instance value known to the
// acceptors instead of to the coordinator alone.
func (n *Node) paxosVoteUpstream(c *txCtx) {
	if c.anyNo {
		// A No voter may abort unilaterally: its instance value No is
		// on its way to the acceptors, and recovery defaults a free
		// instance to No — either way the transaction cannot commit.
		c.paxVote = VoteNo
		n.paxosSendAccept0(c)
		n.abortLocally(c)
		return
	}
	// Read-only folds to Yes under Paxos: instances carry only Yes/No
	// and every participant sees phase two.
	n.logTx(c, recPrepared, recPayload{
		Coord:        c.coord,
		Acceptors:    c.paxAcceptors,
		Participants: c.paxParticipants,
	}, true)
	c.state = stPrepared
	c.paxVote = VoteYes
	n.paxosSendAccept0(c)
	n.armHeuristic(c)
	n.armOutcomeWatch(c)
}

// paxosSendAccept0 sends this participant's ballot-0 accept for its
// own instance to every acceptor (applying it locally when this node
// is itself an acceptor).
func (n *Node) paxosSendAccept0(c *txCtx) {
	if c.paxVoteSent {
		return
	}
	c.paxVoteSent = true
	meta := c.paxosMeta(0, c.paxParticipants[0])
	meta.Instance = string(n.id)
	payload := meta.Encode()
	wire := protocol.VoteYes
	if c.paxVote == VoteNo {
		wire = protocol.VoteNo
	}
	for _, a := range c.paxAcceptors {
		if a == n.id {
			n.paxosAcceptLocal(c, meta, c.paxVote)
			continue
		}
		n.send(a, protocol.Message{
			Type: protocol.MsgPaxosAccept, Tx: c.id.String(),
			Vote: wire, Payload: payload,
		})
	}
}

// ---- Acceptor role ----

// handlePaxosAccept processes a ballot-b accept request at an
// acceptor. A finished node short-circuits with the known outcome.
func (n *Node) handlePaxosAccept(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	if o, ok := n.done[tx]; ok {
		n.paxosReplyOutcome(NodeID(meta.Leader), from, tx, o)
		return
	}
	c := n.ctx(tx)
	n.paxosAdoptMeta(c, meta)
	if c.decided {
		n.paxosReplyDecision(c, NodeID(meta.Leader), from)
		return
	}
	n.paxosAcceptLocal(c, meta, voteFromWire(m.Vote))
}

// paxosAcceptLocal is the acceptor's accept rule. Ballot-0 accepts
// accumulate in volatile state and become durable in one bundled
// forced record once every instance has reported; recovery-ballot
// accepts are forced (and acknowledged) individually.
func (n *Node) paxosAcceptLocal(c *txCtx, meta protocol.PaxosMeta, vote Vote) {
	if indexOfNode(c.paxAcceptors, n.id) < 0 {
		return // not an acceptor for this transaction
	}
	b := meta.Ballot
	if b < c.paxPromised {
		return // promised a higher ballot: refuse silently
	}
	inst := NodeID(meta.Instance)
	if inst == "" {
		return
	}
	if c.paxAccepted == nil {
		c.paxAccepted = make(map[NodeID]*paxInst)
	}
	if prev, ok := c.paxAccepted[inst]; ok && prev.Ballot > b {
		return
	}
	c.paxAccepted[inst] = &paxInst{Inst: inst, Ballot: b, No: vote == VoteNo}
	leader := NodeID(meta.Leader)
	if b == 0 {
		if c.paxBundled || len(c.paxAccepted) < len(c.paxParticipants) {
			return // bundle already out, or still incomplete
		}
		c.paxBundled = true
		insts := c.paxInstList()
		// The acceptance MUST be durable before it is acknowledged:
		// an acceptor that forgets what it acked lets two recovery
		// leaders learn different outcomes. Hooks.SkipAcceptorForce
		// injects exactly that bug for the oracle to convict.
		if n.eng.cfg.Hooks.SkipAcceptorForce {
			n.logTx(c, recPaxAccept, recPayload{
				Acceptors: c.paxAcceptors, Participants: c.paxParticipants,
				Ballot: 0, Insts: insts,
			}, false)
		} else {
			n.logTx(c, recPaxAccept, recPayload{
				Acceptors: c.paxAcceptors, Participants: c.paxParticipants,
				Ballot: 0, Insts: insts,
			}, true)
		}
		n.paxosSendAccepted(c, leader, 0, insts)
		return
	}
	// Recovery ballot: accept individually, durably, and ack the
	// leader that proposed it.
	c.paxPromised = b
	one := []paxInst{*c.paxAccepted[inst]}
	force := !n.eng.cfg.Hooks.SkipAcceptorForce
	n.logTx(c, recPaxAccept, recPayload{
		Acceptors: c.paxAcceptors, Participants: c.paxParticipants,
		Ballot: b, Insts: one,
	}, force)
	n.paxosSendAccepted(c, leader, b, one)
}

// paxInstList snapshots the acceptor's accepted state in instance
// order (deterministic for logs and promises).
func (c *txCtx) paxInstList() []paxInst {
	out := make([]paxInst, 0, len(c.paxAccepted))
	for _, p := range c.paxParticipants {
		if in, ok := c.paxAccepted[p]; ok {
			out = append(out, *in)
		}
	}
	return out
}

// paxosSendAccepted reports durable acceptance(s) to the ballot's
// leader, short-circuiting the network when the leader is this node.
func (n *Node) paxosSendAccepted(c *txCtx, leader NodeID, ballot int, insts []paxInst) {
	meta := c.paxosMeta(ballot, leader)
	meta.States = instStates(insts)
	if leader == n.id {
		n.paxosLeaderAcks(c, n.id, meta)
		return
	}
	wire := protocol.VoteYes
	for _, in := range insts {
		if in.No {
			wire = protocol.VoteNo
		}
	}
	n.send(leader, protocol.Message{
		Type: protocol.MsgPaxosAccepted, Tx: c.id.String(),
		Vote: wire, Payload: meta.Encode(),
	})
}

func instStates(insts []paxInst) []protocol.PaxosInstanceState {
	out := make([]protocol.PaxosInstanceState, len(insts))
	for i, in := range insts {
		v := protocol.VoteYes
		if in.No {
			v = protocol.VoteNo
		}
		out[i] = protocol.PaxosInstanceState{Instance: string(in.Inst), Ballot: in.Ballot, Vote: v}
	}
	return out
}

// handlePaxosQuery processes a recovery leader's phase-1a request.
func (n *Node) handlePaxosQuery(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	if o, ok := n.done[tx]; ok {
		n.paxosReplyOutcome(NodeID(meta.Leader), from, tx, o)
		return
	}
	c := n.ctx(tx)
	n.paxosAdoptMeta(c, meta)
	if c.decided {
		n.paxosReplyDecision(c, NodeID(meta.Leader), from)
		return
	}
	n.paxosPromiseLocal(c, meta)
}

// paxosPromiseLocal is the acceptor's promise rule: refuse stale
// ballots, force the promise with the durable accepted state, report
// that state to the leader. Volatile (never-acknowledged) ballot-0
// accepts are dropped — equivalent to the accept having been lost.
func (n *Node) paxosPromiseLocal(c *txCtx, meta protocol.PaxosMeta) {
	if indexOfNode(c.paxAcceptors, n.id) < 0 {
		return
	}
	b := meta.Ballot
	if b <= c.paxPromised {
		return // stale leader: it will retry with a higher ballot
	}
	c.paxPromised = b
	if !c.paxBundled {
		for inst, in := range c.paxAccepted {
			if in.Ballot == 0 {
				delete(c.paxAccepted, inst)
			}
		}
	}
	insts := c.paxInstList()
	n.logTx(c, recPaxPromise, recPayload{
		Acceptors: c.paxAcceptors, Participants: c.paxParticipants,
		Ballot: b, Insts: insts,
	}, true)
	leader := NodeID(meta.Leader)
	reply := c.paxosMeta(b, leader)
	reply.States = instStates(insts)
	if leader == n.id {
		n.paxosLeaderPromise(c, n.id, reply)
		return
	}
	n.send(leader, protocol.Message{
		Type: protocol.MsgPaxosPromise, Tx: c.id.String(), Payload: reply.Encode(),
	})
}

// paxosReplyOutcome answers Paxos traffic for a transaction this node
// already finished: the plain recovery outcome resolves the asker.
func (n *Node) paxosReplyOutcome(leader, from NodeID, tx TxID, o Outcome) {
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

func (n *Node) paxosReplyDecision(c *txCtx, leader, from NodeID) {
	o := OutcomeAborted
	if c.decisionCommit {
		o = OutcomeCommitted
	}
	n.paxosReplyOutcome(leader, from, c.id, o)
}

// ---- Leader role ----

// handlePaxosAccepted counts acceptor acknowledgments at the ballot's
// leader.
func (n *Node) handlePaxosAccepted(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return
	}
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	n.paxosLeaderAcks(c, from, meta)
}

// paxosLeaderAcks folds one acceptor's acknowledgment into the
// leader's quorum bookkeeping and decides once every instance has an
// f+1 quorum at the current ballot.
func (n *Node) paxosLeaderAcks(c *txCtx, from NodeID, meta protocol.PaxosMeta) {
	if !c.paxLeading || c.decided || meta.Ballot != c.paxBallot {
		return
	}
	for _, st := range meta.States {
		inst := NodeID(st.Instance)
		acks := c.paxAcks[inst]
		if acks == nil {
			acks = make(map[NodeID]bool)
			c.paxAcks[inst] = acks
		}
		acks[from] = true
		v := VoteYes
		if st.Vote == protocol.VoteNo {
			v = VoteNo
		}
		c.paxProposal[inst] = v
	}
	quorum := n.paxosQuorum(c)
	for _, p := range c.paxParticipants {
		if len(c.paxAcks[p]) < quorum {
			return
		}
	}
	commit := true
	for _, p := range c.paxParticipants {
		if c.paxProposal[p] == VoteNo {
			commit = false
		}
	}
	n.paxosLeaderDecide(c, commit)
}

// paxosLeaderDecide applies a quorum-backed decision at the leader
// and propagates it to every participant. The outcome record is
// written lazily: the acceptor quorum, not this node's log, is the
// durable truth.
func (n *Node) paxosLeaderDecide(c *txCtx, commit bool) {
	if c.decided {
		return
	}
	c.paxTimerGen++ // disarm pending fast-path/recovery timers
	if c.isRoot {
		for _, p := range c.paxParticipants[1:] {
			s := c.sub(p)
			s.prepareSent = true
			if commit {
				s.voted = true
				s.vote = VoteYes
			}
		}
		n.ownDecision(c, commit)
		return
	}
	// Subordinate-led recovery: resolve the others too — the whole
	// point of the acceptor quorum is that the outcome no longer
	// depends on any one node.
	mt := protocol.MsgAbort
	if commit {
		mt = protocol.MsgCommit
	}
	for _, p := range c.paxParticipants {
		if p == n.id {
			continue
		}
		n.send(p, protocol.Message{Type: mt, Tx: c.id.String()})
	}
	n.receivedDecision(c, commit)
}

// handlePaxosPromise processes an acceptor's phase-1b report at a
// recovery leader.
func (n *Node) handlePaxosPromise(from NodeID, m protocol.Message) {
	tx := ParseTxID(m.Tx)
	c, ok := n.txs[tx]
	if !ok {
		return
	}
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	n.paxosLeaderPromise(c, from, meta)
}

// paxosLeaderPromise collects promises; at a quorum it applies the
// Gray-Lamport value-choice rule and proposes ballot-b values for
// every instance.
func (n *Node) paxosLeaderPromise(c *txCtx, from NodeID, meta protocol.PaxosMeta) {
	if !c.paxLeading || c.decided || meta.Ballot != c.paxBallot || c.paxPromises == nil {
		return
	}
	if c.paxPromises[from] {
		return
	}
	c.paxPromises[from] = true
	c.paxPromState = append(c.paxPromState, meta.States...)
	if len(c.paxPromises) < n.paxosQuorum(c) {
		return
	}
	if len(c.paxProposal) > 0 {
		return // this ballot's proposal already went out
	}
	for _, p := range c.paxParticipants {
		// Re-propose the maximum-ballot accepted value; a free
		// instance defaults to No — except our own, whose vote we
		// know and may propose freely.
		val, found := VoteNo, false
		best := -1
		for _, st := range c.paxPromState {
			if NodeID(st.Instance) != p || st.Ballot <= best {
				continue
			}
			best = st.Ballot
			found = true
			val = VoteYes
			if st.Vote == protocol.VoteNo {
				val = VoteNo
			}
		}
		if !found && p == n.id {
			val = c.paxVote
		}
		c.paxProposal[p] = val
	}
	n.trcApp("paxos: ballot " + strconv.Itoa(c.paxBallot) + " proposing for " + c.id.String())
	for _, p := range c.paxParticipants {
		prop := c.paxosMeta(c.paxBallot, n.id)
		prop.Instance = string(p)
		wire := protocol.VoteYes
		if c.paxProposal[p] == VoteNo {
			wire = protocol.VoteNo
		}
		payload := prop.Encode()
		for _, a := range c.paxAcceptors {
			if a == n.id {
				n.paxosAcceptLocal(c, prop, c.paxProposal[p])
				continue
			}
			n.send(a, protocol.Message{
				Type: protocol.MsgPaxosAccept, Tx: c.id.String(),
				Vote: wire, Payload: payload,
			})
		}
	}
}

// ---- Recovery rounds and timers ----

// armPaxosFastTimer bounds the coordinator's ballot-0 wait: if the
// fast path does not reach quorum in time (lost accepts, crashed or
// No-voting participants), the coordinator leads a recovery round —
// it may NOT abort unilaterally once accepts may exist.
func (n *Node) armPaxosFastTimer(c *txCtx) {
	c.paxTimerGen++
	gen := c.paxTimerGen
	at := n.localTime + n.eng.cfg.VoteTimeout
	n.eng.queue.pushTimer(at, n.id, func() {
		if n.crashed {
			return
		}
		cur, ok := n.txs[c.id]
		if !ok || cur != c || c.paxTimerGen != gen || c.decided {
			return
		}
		n.eng.arriveAt(n, at)
		n.trcApp("paxos: fast path overdue, starting recovery round for " + c.id.String())
		n.startPaxosRecovery(c)
	})
}

// startPaxosRecovery leads one recovery round from this participant
// with a fresh, globally unique ballot (attempt*N + own index + 1).
func (n *Node) startPaxosRecovery(c *txCtx) {
	if c.decided || n.crashed {
		return
	}
	idx := indexOfNode(c.paxParticipants, n.id)
	if idx < 0 || len(c.paxAcceptors) == 0 {
		return
	}
	c.paxAttempts++
	if c.paxAttempts > 8 {
		n.trcApp("paxos: giving up recovery for " + c.id.String() + " (operator needed)")
		return
	}
	c.paxBallot = c.paxAttempts*len(c.paxParticipants) + idx + 1
	c.paxLeading = true
	c.paxAcks = make(map[NodeID]map[NodeID]bool)
	c.paxProposal = make(map[NodeID]Vote)
	c.paxPromises = make(map[NodeID]bool)
	c.paxPromState = nil
	n.trcApp("paxos: recovery round ballot " + strconv.Itoa(c.paxBallot) + " for " + c.id.String())
	meta := c.paxosMeta(c.paxBallot, n.id)
	payload := meta.Encode()
	for _, a := range c.paxAcceptors {
		if a == n.id {
			n.paxosPromiseLocal(c, meta)
			continue
		}
		n.send(a, protocol.Message{Type: protocol.MsgPaxosQuery, Tx: c.id.String(), Payload: payload})
	}
	n.armPaxosRecoveryTimer(c)
}

// armPaxosRecoveryTimer retries recovery with a higher ballot if the
// round stalls (lost messages, a competing leader, crashed acceptors
// below quorum that later restart).
func (n *Node) armPaxosRecoveryTimer(c *txCtx) {
	c.paxTimerGen++
	gen := c.paxTimerGen
	at := n.localTime + 2*n.eng.cfg.InquireRetry
	n.eng.queue.pushTimer(at, n.id, func() {
		if n.crashed {
			return
		}
		cur, ok := n.txs[c.id]
		if !ok || cur != c || c.paxTimerGen != gen || c.decided {
			return
		}
		n.eng.arriveAt(n, at)
		n.startPaxosRecovery(c)
	})
}

// schedulePaxosRecovery defers the first recovery round (restart
// paths), staggered like scheduleInquiry.
func (n *Node) schedulePaxosRecovery(c *txCtx) {
	c.paxTimerGen++
	gen := c.paxTimerGen
	at := n.localTime + n.eng.cfg.InquireRetry
	n.eng.queue.pushTimer(at, n.id, func() {
		if n.crashed {
			return
		}
		cur, ok := n.txs[c.id]
		if !ok || cur != c || c.paxTimerGen != gen || c.decided {
			return
		}
		n.eng.arriveAt(n, at)
		n.startPaxosRecovery(c)
	})
}
