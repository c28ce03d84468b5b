package live

// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit")
// over the live runtime: each participant's vote is one Paxos
// instance replicated across 2f+1 acceptors colocated on the
// transaction's nodes. The coordinator is merely the initial
// (ballot-0) leader; after it crashes, any prepared participant leads
// a recovery round and learns the outcome from an acceptor quorum —
// no blocking window, at the cost of one extra message delay and the
// acceptor forces.
//
// Fast path (ballot 0), flat tree with coordinator C and subs S1..Sn:
//
//	C --Prepare(meta)--> Si           (n flows)
//	Si: force Prepared, then send its instance's ballot-0 accept
//	    to every acceptor              (a or a-1 flows each)
//	acceptor: once every instance has reported, force ONE bundled
//	    PaxAccept record and send ONE bundled PaxosAccepted to C
//	C: f+1 bundles per instance -> decide; Commit to subs (n flows)
//
// Abort safety: once any instance may have been accepted anywhere,
// nobody may abort unilaterally — a recovery leader is obliged to
// re-propose the maximum-ballot accepted value it hears about, so a
// unilateral abort could split the outcome. Every timeout therefore
// runs the same recovery round: PaxosQuery(b) to the acceptors, a
// promise quorum, the Gray-Lamport value-choice rule, then ballot-b
// accepts until every instance has an f+1 quorum.
//
// The rules themselves (acceptor set, quorum, ballots, accept and
// promise, restore, tally, value choice) are protocol.PaxosTx and
// protocol.PaxosRound, shared with the simulator; this file is the
// runtime's driver: the inbox, retry alarms, records, the cost ledger.

import (
	"context"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/wal"
)

// paxos returns st's Paxos state, creating it on first use.
func (p *Participant) paxos(st *txState) *protocol.PaxosTx {
	if st.pax == nil {
		st.pax = &protocol.PaxosTx{
			Self:              p.name,
			SkipAcceptorForce: p.hooks.SkipAcceptorForce,
			QuorumOverride:    p.hooks.QuorumOverride,
		}
	}
	return st.pax
}

// ---- Coordinator fast path ----

// runPaxosCommit is the coordinator's ballot-0 fast path: no pre-force
// (the acceptor quorum is the durable truth), Prepares announce the
// acceptor membership, and the coordinator's own instance value goes
// to the acceptors at ballot 0 alongside everyone else's.
func (p *Participant) runPaxosCommit(ctx context.Context, st *txState, tx protocol.TxID, txName string, subs []string) (Outcome, error) {
	participants := append([]string{p.name}, subs...)
	st.sub.Presume = protocol.VariantPaxos
	ps := p.paxos(st)
	ps.Adopt(protocol.PaxosAcceptorSet(p.name, subs), participants)
	meta := ps.Meta(0, p.name)

	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: protocol.VariantPaxos, Payload: meta.Encode()}
	for _, s := range subs {
		if err := p.send(s, prep); err != nil {
			if p.Crashed() {
				return InDoubt, ErrCrashed
			}
			// No accept of our instance exists yet, so a unilateral
			// abort is still safe: recovery defaults free instances to
			// No, and our instance can never have been accepted Yes.
			return p.paxosCoordFinish(st, tx, txName, subs, false, true, true), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}

	localVote := protocol.PrepareAll(p.res, tx).Vote
	if localVote == protocol.VoteNo {
		return p.paxosCoordFinish(st, tx, txName, subs, false, true, true), nil
	}
	// Read-only folds to yes under Paxos: instances carry only Yes/No
	// and every participant sees phase two. A lost accept falls to the
	// recovery round; a crash ends the fast path here, before any reply
	// can be collected.
	ps.Vote = protocol.VoteYes
	p.paxosSendAccept0(st)
	if p.Crashed() {
		return InDoubt, ErrCrashed
	}

	round := ps.NewRound(0)
	selfAcceptor := ps.IsAcceptor()
	deadline := p.sched.NewTimer(p.voteTimeout)
	defer deadline.Stop()
fast:
	for {
		switch env, w := p.next(ctx, st, deadline.C()); w {
		case gotReply:
			if commit, ok := protocol.OutcomeOf(&env.msg); ok {
				// Another leader, or an acceptor that already knows the
				// outcome, resolved the transaction for us.
				return p.paxosCoordFinish(st, tx, txName, subs, commit, true, false), nil
			}
			if env.msg.Type != protocol.MsgPaxosAccepted {
				continue
			}
			bm, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil {
				continue
			}
			commit, decided := round.Ack(env.from, bm.Ballot, bm.States)
			if !decided {
				continue
			}
			// The coordinator's own acceptor bundle must be forced
			// before the decision leaves: deciding retires this entry,
			// after which a late accept is answered with the outcome
			// and the bundle would never be forced (see DESIGN §13).
			if selfAcceptor && !ps.Bundled() {
				continue
			}
			return p.paxosCoordFinish(st, tx, txName, subs, commit, true, true), nil
		case rang:
			break fast
		case crashed:
			return InDoubt, ErrCrashed
		case stopping, cancelled:
			// Accepts may exist: aborting unilaterally could split the
			// outcome, so the transaction is genuinely in doubt here.
			if p.met != nil {
				p.met.InDoubtEntry(p.name)
			}
			cause := ctx.Err()
			if w == stopping {
				cause = errStopped
			}
			return InDoubt, fmt.Errorf("live: awaiting paxos quorum for %s: %w (%w)", txName, ErrInDoubt, cause)
		}
	}

	// Fast path overdue (lost accepts, crashed or No-voting
	// participants that never reported): lead a recovery round — the
	// coordinator may NOT abort unilaterally once accepts may exist.
	commit, err := p.paxosLeadRounds(ctx, st, txName)
	if err != nil {
		if p.met != nil {
			p.met.InDoubtEntry(p.name)
		}
		return InDoubt, fmt.Errorf("live: paxos recovery for %s: %w (%v)", txName, ErrInDoubt, err)
	}
	return p.paxosCoordFinish(st, tx, txName, subs, commit, false, false), nil
}

// paxosCoordFinish applies a Paxos decision at the coordinator. The
// outcome record is written lazily: the acceptor quorum, not this
// node's log, is the durable truth. broadcast=false when a recovery
// round already told every participant; firstClass marks the fast
// path's Commit flows (recovery deliveries are extra flows).
func (p *Participant) paxosCoordFinish(st *txState, tx protocol.TxID, txName string, subs []string, commit, broadcast, firstClass bool) Outcome {
	rec := wal.Record{Tx: txName, Node: p.name, Kind: protocol.RecCommitted}
	out, delivered := Committed, len(subs)
	if !commit {
		rec.Kind, out, delivered = protocol.RecAborted, Aborted, -1
	}
	_ = p.lazy(rec)
	// The coordinator is always one of the transaction's acceptors:
	// its entry stays pinned for recovery leaders.
	p.recordDecision(txName, commit, true)
	p.complete(tx, commit)
	if p.met != nil {
		p.met.CostOutcome(txName, out.String(), delivered)
	}
	if broadcast {
		om := outcomeMsg(txName, commit, nil, "")
		for _, s := range subs {
			_ = p.sendFlow(s, om, !firstClass)
		}
	}
	if p.lazy(wal.Record{Tx: txName, Node: p.name, Kind: protocol.RecEnd}) == nil && p.met != nil {
		p.met.CostNodeDone(txName, p.name)
	}
	return out
}

// ---- Subordinate phase one ----

// handlePaxosPrepare runs a subordinate's phase one under Paxos
// Commit: prepare, force the Prepared record with the announced
// membership in its payload (a restarted participant recovers from
// the acceptor quorum, not from the possibly-dead coordinator), then
// make the vote known to every acceptor — the ballot-0 accept of this
// participant's own instance replaces MsgVote.
func (p *Participant) handlePaxosPrepare(st *txState, from string, m *protocol.Message) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	ps := p.paxos(st)
	ps.Adopt(meta.Acceptors, meta.Participants)
	if ps.VoteSent || len(ps.Acceptors) == 0 {
		return // duplicate Prepare, or membership missing: recovery retries
	}
	tx := protocol.ParseTxID(m.Tx)
	vote := protocol.PrepareAll(p.res, tx).Vote
	if vote == protocol.VoteReadOnly {
		// Read-only folds to yes under Paxos: instances carry only
		// Yes/No and every participant sees phase two.
		vote = protocol.VoteYes
	}
	if vote == protocol.VoteYes {
		// The Prepare's payload is the membership's pax1 encoding, which
		// is what LogRecord{Paxos: &meta} encodes: logged as it came.
		if err := p.force(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecPrepared, Data: m.Payload}); err != nil {
			vote = protocol.VoteNo
		}
	}
	if p.met != nil {
		p.met.CostSub(m.Tx, p.name, protocol.VariantPaxos.String(), false)
		p.met.CostMembership(m.Tx, len(ps.Participants)-1)
		if ps.IsAcceptor() {
			p.met.CostAcceptor(m.Tx, p.name)
		}
	}
	if vote == protocol.VoteYes {
		st.sub.Prepared = true
	}
	ps.Vote = vote
	p.paxosSendAccept0(st)
	if vote == protocol.VoteNo {
		// A No voter may abort unilaterally: its instance value No is
		// on its way to the acceptors, and recovery defaults a free
		// instance to No — either way the transaction cannot commit.
		_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecAborted})
		p.complete(tx, false)
		st.sub.Finish(false)
		p.recordSubDecision(st, false)
		_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecEnd})
		if p.met != nil {
			p.met.CostOutcome(m.Tx, "aborted", -1)
			p.met.CostNodeDone(m.Tx, p.name)
		}
	}
}

// paxosSendAccept0 sends this participant's ballot-0 accept for
// its own instance to every acceptor, self-applying when this node is
// itself one.
func (p *Participant) paxosSendAccept0(st *txState) {
	ps := st.pax
	if ps.VoteSent || len(ps.Acceptors) == 0 {
		return
	}
	ps.VoteSent = true
	am := ps.Meta(0, ps.Participants[0])
	am.Instance = p.name
	p.paxosBroadcastAccept(st, am, ps.Vote)
}

// paxosBroadcastAccept sends an accept of am.Instance's value
// to every acceptor, applying it here when this node is one. A
// recovery ballot's accepts are extra flows.
func (p *Participant) paxosBroadcastAccept(st *txState, am protocol.PaxosMeta, vote protocol.VoteValue) {
	msg := protocol.Message{Type: protocol.MsgPaxosAccept, Tx: st.id, Vote: vote, Payload: am.Encode()}
	for _, a := range st.pax.Acceptors {
		switch {
		case a == p.name:
			p.paxosAccept(st, am, vote)
		case am.Ballot > 0:
			_ = p.sendExtra(a, msg)
		default:
			_ = p.send(a, msg)
		}
	}
}

// ---- Acceptor role ----

// handlePaxosAccept processes a ballot-b accept request at an
// acceptor. A decided transaction short-circuits with the known
// outcome — except a ballot-0 accept completing a committed
// transaction's still-pending bundle, which runs to completion so the
// acceptor's durable (and cost-audited) state finishes even when the
// decision raced ahead of the slowest accept. d and known are the
// decided table's entry for the transaction.
func (p *Participant) handlePaxosAccept(st *txState, from string, m *protocol.Message, d decision, known bool) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	// A subordinate entry kept for its pending bundle retires as soon
	// as this accept completes it.
	defer p.retire(st)
	ps := p.paxos(st)
	ps.Adopt(meta.Acceptors, meta.Participants)
	if known {
		committed := d.committed()
		pendingBundle := committed && meta.Ballot == 0 && !ps.Bundled() && ps.Holds()
		if !pendingBundle {
			p.paxosReplyOutcome(meta.Leader, from, m.Tx, committed)
			return
		}
	}
	pending := st.bundlePending()
	if p.paxosAccept(st, meta, m.Vote) && pending && ps.Bundled() && p.met != nil {
		// The subordinate's phase two closed without its bundle
		// (applyOutcome); now that it is forced and sent, so is the
		// acceptor's spend.
		p.met.CostNodeDone(m.Tx, p.name)
	}
}

// paxosAccept applies the acceptor's accept rule and does what
// it asks: write the acceptance, then acknowledge it to the ballot's
// leader. It reports whether an acknowledgment went out.
func (p *Participant) paxosAccept(st *txState, meta protocol.PaxosMeta, vote protocol.VoteValue) bool {
	step, ok := st.pax.Accept(meta.Ballot, meta.Instance, vote)
	if !ok || p.writePaxos(st, protocol.RecPaxAccept, step) != nil {
		return false
	}
	p.paxosReply(st, protocol.MsgPaxosAccepted, meta.Leader, step)
	return true
}

// handlePaxosQuery processes a recovery leader's phase-1a request at
// an acceptor. A decided transaction never gets here: it is answered
// with the outcome (answerDecided) — faster than a round, and safe
// because decisions are quorum-backed.
func (p *Participant) handlePaxosQuery(st *txState, m *protocol.Message) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	p.paxos(st).Adopt(meta.Acceptors, meta.Participants)
	p.paxosPromise(st, meta)
}

// paxosPromise applies the acceptor's promise rule and does what
// it asks: force the promise with the accepted state, then report that
// state to the leader.
func (p *Participant) paxosPromise(st *txState, meta protocol.PaxosMeta) {
	step, ok := st.pax.Promise(meta.Ballot)
	if !ok || p.writePaxos(st, protocol.RecPaxPromise, step) != nil {
		return
	}
	p.paxosReply(st, protocol.MsgPaxosPromise, meta.Leader, step)
}

// writePaxos writes an acceptor step's record (PaxosTx.Record).
// An unforced step's write error is ignored, as for every lazy record.
func (p *Participant) writePaxos(st *txState, kind string, step protocol.PaxosStep) error {
	rec := wal.Record{Tx: st.id, Node: p.name, Kind: kind, Data: st.pax.Record(kind, step).Encode()}
	if step.Force {
		return p.force(rec)
	}
	_ = p.lazy(rec)
	return nil
}

// paxosReply reports an acceptor step to the ballot's leader, posting
// it to st's own inbox when the leader is this node. The ballot-0
// bundle is a first-class flow of the fast path; recovery-ballot acks
// are extra flows, and so are promises (sendFlow marks them).
func (p *Participant) paxosReply(st *txState, mt protocol.MsgType, leader string, step protocol.PaxosStep) {
	am := st.pax.Meta(step.Ballot, leader)
	am.States = step.States
	msg := protocol.Message{Type: mt, Tx: st.id, Payload: am.Encode()}
	if mt == protocol.MsgPaxosAccepted {
		msg.Vote = step.Vote()
	}
	switch {
	case leader == p.name:
		st.sh.mu.Lock()
		p.postLocked(st, envelope{from: p.name, msg: msg})
		st.sh.mu.Unlock()
	case mt == protocol.MsgPaxosAccepted && step.Ballot > 0:
		_ = p.sendExtra(leader, msg)
	default:
		_ = p.send(leader, msg)
	}
}

// paxosReplyOutcome answers Paxos traffic for a transaction this node
// has already decided: the plain recovery outcome resolves the asker.
func (p *Participant) paxosReplyOutcome(leader, from, tx string, committed bool) {
	to := leader
	if to == "" || to == p.name {
		to = from
	}
	if to == p.name {
		return
	}
	out := protocol.OutcomeAbort
	if committed {
		out = protocol.OutcomeCommit
	}
	_ = p.sendExtra(to, protocol.Message{Type: protocol.MsgOutcome, Tx: tx, Outcome: out})
}

// ---- Recovery leader ----

// paxosLeadRounds leads recovery rounds for one transaction until a
// decision is reached, each at this node's next ballot, counted across
// every call for the transaction (PaxosTx.NextBallot): PaxosQuery to
// the acceptors, a promise quorum, the round's proposal, then ballot-b
// accepts until every instance has a quorum. A reached decision is
// broadcast to every other participant before returning; applying it
// locally is the caller's job.
func (p *Participant) paxosLeadRounds(ctx context.Context, st *txState, txName string) (bool, error) {
	ps := st.pax
	if ps == nil || len(ps.Acceptors) == 0 {
		return false, fmt.Errorf("live: no paxos membership recorded for %s", txName)
	}

	// The alarm's retransmission points end stalled rounds; its
	// deadline bounds the whole recovery.
	alarm := p.newRetryAlarm(p.ackTimeout, txName, "/paxos")
	defer alarm.stop()

	for {
		ballot, ok := ps.NextBallot()
		if !ok {
			break
		}
		round := ps.NewRound(ballot)
		qm := ps.Meta(ballot, p.name)
		query := protocol.Message{Type: protocol.MsgPaxosQuery, Tx: txName, Payload: qm.Encode()}
		for _, a := range ps.Acceptors {
			if a == p.name {
				p.paxosPromise(st, qm)
				continue
			}
			_ = p.send(a, query) // sendFlow marks queries as extra flows
		}
		commit, decided, err := p.paxosCollectRound(ctx, st, round, &alarm)
		if err != nil {
			return false, err
		}
		if decided {
			return commit, nil
		}
		// Round stalled (lost messages, a competing leader, crashed
		// acceptors below quorum): retry with a higher ballot.
		p.countRetry()
	}
	return false, fmt.Errorf("live: paxos recovery gave up on %s: %w", txName, ErrInDoubt)
}

// paxosCollectRound drives one ballot: feed promises to the round and
// send its proposal, then feed acceptances until it decides.
// decided=false with nil error means the round stalled and a higher
// ballot should retry.
func (p *Participant) paxosCollectRound(ctx context.Context, st *txState, round *protocol.PaxosRound, alarm *retryAlarm) (bool, bool, error) {
	ps := st.pax
	for {
		env, w := p.next(ctx, st, alarm.C())
		switch w {
		case resolved:
			// An outcome reached this node as a subordinate and was
			// applied on the way.
			return st.sub.Committed, true, nil
		case rang:
			if alarm.expired() {
				return false, false, fmt.Errorf("live: paxos recovery deadline for %s: %w", st.id, ErrInDoubt)
			}
			return false, false, nil
		case crashed:
			return false, false, ErrCrashed
		case stopping:
			return false, false, errStopped
		case cancelled:
			return false, false, ctx.Err()
		}
		switch env.msg.Type {
		case protocol.MsgPaxosPromise:
			pm, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil {
				continue
			}
			for _, is := range round.Promise(env.from, pm.Ballot, pm.States) {
				am := ps.Meta(round.Ballot, p.name)
				am.Instance = is.Instance
				p.paxosBroadcastAccept(st, am, is.Vote)
			}
		case protocol.MsgPaxosAccepted:
			am, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil {
				continue
			}
			commit, decided := round.Ack(env.from, am.Ballot, am.States)
			if !decided {
				continue
			}
			// Resolve the others too — the whole point of the acceptor
			// quorum is that the outcome depends on no single node.
			for _, q := range ps.Participants {
				if q != p.name {
					_ = p.sendExtra(q, outcomeMsg(st.id, commit, nil, q))
				}
			}
			return commit, true, nil
		default:
			// An outcome answering the coordinator this node is.
			if commit, ok := protocol.OutcomeOf(&env.msg); ok {
				return commit, true, nil
			}
		}
	}
}

// resolvePaxosInDoubt resolves one in-doubt Paxos transaction from
// the acceptor quorum recorded in its Prepared record — the
// coordinator's fate is irrelevant, which is the non-blocking payoff
// (AC4 without the classic blocking window). It runs as st's consumer.
func (p *Participant) resolvePaxosInDoubt(ctx context.Context, st *txState, txName string) error {
	commit, err := p.paxosLeadRounds(ctx, st, txName)
	if err != nil {
		return err
	}
	if !st.sub.Done {
		m := outcomeMsg(txName, commit, nil, "")
		p.applyOutcome(st, p.name, &m, commit)
	}
	return nil
}
