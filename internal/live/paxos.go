package live

// Paxos Commit in the runtime: protocol.PaxosLead sequences the
// protocol (see its header) and this file drives it — the inbox and
// retry alarm, records, flow classes, the cost ledger and the decided
// table. A recovery ballot's messages are extra flows.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/wal"
)

// paxos returns st's Paxos state, creating it on first use.
func (p *Participant) paxos(st *txState) *protocol.PaxosLead {
	if st.pax == nil {
		st.pax = protocol.NewPaxosLead(p.name, p.hooks)
	}
	return st.pax
}

// runPaxosCommit is the coordinator's part: no pre-force (the acceptor
// quorum is the durable truth), Prepares that announce the membership,
// its own instance's ballot-0 accept, then the round it leads.
func (p *Participant) runPaxosCommit(ctx context.Context, st *txState, tx protocol.TxID, txName string, subs []string) (Outcome, error) {
	st.sub.Presume = protocol.VariantPaxos
	prep := p.paxos(st).Begin(txName, subs)
	for _, s := range subs {
		if err := p.send(s, prep); err != nil {
			if p.Crashed() {
				return InDoubt, ErrCrashed
			}
			// No accept of our instance exists yet, so a unilateral
			// abort is still safe: recovery defaults free instances to
			// No, and our instance can never have been accepted Yes.
			return p.paxosCoordFinish(st, tx, false, false), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}
	if protocol.PrepareAll(p.res, tx).Vote == protocol.VoteNo {
		return p.paxosCoordFinish(st, tx, false, false), nil
	}
	p.paxosCast(st, protocol.VoteYes)
	commit, ballot, err := p.paxosLead(ctx, st, p.voteTimeout)
	switch {
	case errors.Is(err, ErrCrashed):
		return InDoubt, err
	case err != nil:
		// Accepts may exist: aborting unilaterally could split the
		// outcome, so the transaction is genuinely in doubt here.
		if p.met != nil {
			p.met.InDoubtEntry(p.name)
		}
		return InDoubt, fmt.Errorf("live: paxos round for %s: %w (%w)", txName, ErrInDoubt, err)
	}
	return p.paxosCoordFinish(st, tx, commit, ballot != 0), nil
}

// paxosCoordFinish applies the outcome at the coordinator and tells its
// subordinates, as extra flows when a recovery ballot or another node
// settled it. The outcome record is written lazily: the acceptor
// quorum, not this node's log, is the durable truth.
func (p *Participant) paxosCoordFinish(st *txState, tx protocol.TxID, commit, extra bool) Outcome {
	rec := wal.Record{Tx: st.id, Node: p.name, Kind: protocol.RecCommitted}
	out, delivered := Committed, len(st.pax.Participants)-1
	if !commit {
		rec.Kind, out, delivered = protocol.RecAborted, Aborted, -1
	}
	_ = p.lazy(rec)
	// The coordinator is always one of the transaction's acceptors:
	// its entry stays pinned for recovery leaders.
	p.recordDecision(st.id, commit, true)
	p.complete(tx, commit)
	if p.met != nil {
		p.met.CostOutcome(st.id, out.String(), delivered)
	}
	p.paxosTell(st, commit, extra)
	if p.lazy(wal.Record{Tx: st.id, Node: p.name, Kind: protocol.RecEnd}) == nil && p.met != nil {
		p.met.CostNodeDone(st.id, p.name)
	}
	return out
}

// paxosTell sends the outcome to every other participant.
func (p *Participant) paxosTell(st *txState, commit, extra bool) {
	om := protocol.OutcomeMessage(st.id, commit)
	for _, q := range st.pax.Others() {
		_ = p.sendFlow(q, om, extra)
	}
}

// handlePaxosPrepare runs a subordinate's phase one: prepare, force the
// Prepared record with the announced membership in its payload (a
// restarted participant recovers from the acceptor quorum, not from the
// possibly-dead coordinator), then cast the vote — the ballot-0 accept
// of this participant's own instance replaces MsgVote.
func (p *Participant) handlePaxosPrepare(st *txState, m *protocol.Message) {
	ps := p.paxos(st)
	if !ps.Asked(m) {
		return // duplicate Prepare, or membership missing: recovery retries
	}
	tx := protocol.ParseTxID(m.Tx)
	vote := protocol.PrepareAll(p.res, tx).Vote
	// The Prepare's payload is the membership's pax1 encoding, which is
	// what LogRecord{Paxos: &meta} encodes: logged as it came.
	if vote != protocol.VoteNo && p.force(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecPrepared, Data: m.Payload}) != nil {
		vote = protocol.VoteNo
	}
	if p.met != nil {
		p.met.CostSub(m.Tx, p.name, protocol.VariantPaxos.String(), false)
		p.met.CostMembership(m.Tx, len(ps.Participants)-1)
		if ps.IsAcceptor() {
			p.met.CostAcceptor(m.Tx, p.name)
		}
	}
	if vote != protocol.VoteNo {
		st.sub.Prepared = true
	}
	p.paxosCast(st, vote)
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

// paxosCast sends this participant's ballot-0 accept (PaxosTx.Cast).
func (p *Participant) paxosCast(st *txState, v protocol.VoteValue) {
	if m, ok := st.pax.Cast(v); ok {
		p.paxosToAcceptors(st, m)
	}
}

// paxosToAcceptors sends m to every acceptor, taking it here when this
// node is one.
func (p *Participant) paxosToAcceptors(st *txState, m protocol.PaxosMsg) {
	msg := m.Message(st.id)
	for _, a := range st.pax.Acceptors {
		if a == p.name {
			p.paxosAcceptor(st, m)
		} else {
			_ = p.sendFlow(a, msg, m.Meta.Ballot > 0)
		}
	}
}

// handlePaxosAcceptor takes a PaxosAccept or PaxosQuery at an acceptor
// (dispatch answers a decided transaction's query). A decided
// transaction answers an accept with the outcome — except a ballot-0
// accept completing a committed transaction's still-pending bundle,
// which runs to completion so the acceptor's durable (and
// cost-audited) state finishes even when the decision raced ahead of
// the slowest accept. d and known are the decided table's entry for
// the transaction.
func (p *Participant) handlePaxosAcceptor(st *txState, from string, m *protocol.Message, d decision, known bool) {
	pm, err := protocol.DecodePaxos(m)
	if err != nil {
		return
	}
	// A subordinate entry kept for its pending bundle retires as soon
	// as this accept completes it.
	defer p.retire(st)
	ps := p.paxos(st)
	if known && !(d.committed() && pm.Meta.Ballot == 0 && !ps.Bundled() && ps.Holds()) {
		p.answerDecided(from, m, d)
		return
	}
	pending := st.bundlePending()
	if p.paxosAcceptor(st, pm) && pending && ps.Bundled() && p.met != nil {
		// The subordinate's phase two closed without its bundle
		// (applyOutcome); now that it is forced and sent, so is the
		// acceptor's spend.
		p.met.CostNodeDone(m.Tx, p.name)
	}
}

// paxosAcceptor applies the acceptor's rule for m and does what it
// asks: write the record, then report to the ballot's leader, through
// st's own inbox when that is this node. It reports whether the report
// went out. An unforced record's write error is ignored, as for every
// lazy record.
func (p *Participant) paxosAcceptor(st *txState, m protocol.PaxosMsg) bool {
	step, ok := st.pax.Take(m)
	if !ok {
		return false
	}
	rec := wal.Record{Tx: st.id, Node: p.name, Kind: step.Kind, Data: st.pax.Record(step).Encode()}
	if !step.Force {
		_ = p.lazy(rec)
	} else if p.force(rec) != nil {
		return false
	}
	reply := step.Reply.Message(st.id)
	if step.To == p.name {
		st.sh.mu.Lock()
		p.postLocked(st, envelope{from: p.name, msg: reply})
		st.sh.mu.Unlock()
	} else {
		_ = p.sendFlow(step.To, reply, step.Ballot > 0)
	}
	return true
}

// paxosLead runs, as st's consumer, the round this node leads until it
// decides: the coordinator's ballot 0, for up to wait, then recovery
// ballots (PaxosLead.Timeout) — the first once wait is over, each later
// one when the retry alarm finds the last stalled (lost messages, a
// competing leader, crashed acceptors below quorum), all within the
// alarm's deadline. It returns the outcome and the ballot this node
// decided it at, or -1 when the outcome reached it from elsewhere.
func (p *Participant) paxosLead(ctx context.Context, st *txState, wait time.Duration) (bool, int, error) {
	ps := st.pax
	if ps == nil || len(ps.Acceptors) == 0 {
		return false, -1, fmt.Errorf("live: no paxos membership recorded for %s", st.id)
	}
	alarm, recovering := retryAlarm{t: p.sched.NewTimer(wait)}, false
	defer func() { alarm.stop() }()
	for {
		env, w := p.next(ctx, st, alarm.C())
		switch w {
		case resolved:
			// An outcome reached this node as a subordinate and was
			// applied on the way.
			return st.sub.Committed, -1, nil
		case rang:
			switch {
			case !recovering:
				alarm, recovering = p.newRetryAlarm(p.ackTimeout, st.id, "/paxos"), true
			case alarm.expired():
				return false, -1, fmt.Errorf("live: paxos recovery deadline for %s: %w", st.id, ErrInDoubt)
			default:
				p.countRetry()
			}
			q, ok := ps.Timeout()
			if !ok {
				return false, -1, fmt.Errorf("live: paxos recovery gave up on %s: %w", st.id, ErrInDoubt)
			}
			p.paxosToAcceptors(st, q)
			continue
		case crashed, stopping, cancelled:
			return false, -1, w.err(ctx)
		}
		if commit, ok := protocol.OutcomeOf(&env.msg); ok {
			return commit, -1, nil // another leader, or an acceptor that knows it
		}
		pm, err := protocol.DecodePaxos(&env.msg)
		if err != nil {
			continue
		}
		next := ps.Reply(env.from, pm)
		for _, a := range next.Propose {
			p.paxosToAcceptors(st, a)
		}
		// A ballot-0 decision waits for the coordinator's own acceptor
		// bundle to be forced: deciding retires this entry, after which
		// a late accept is answered with the outcome and the bundle
		// would never be forced (see DESIGN §13).
		if next.Decided && (pm.Meta.Ballot > 0 || ps.Bundled() || !ps.IsAcceptor()) {
			return next.Commit, pm.Meta.Ballot, nil
		}
	}
}

// resolvePaxosInDoubt resolves one in-doubt Paxos transaction from
// the acceptor quorum recorded in its Prepared record — the
// coordinator's fate is irrelevant, which is the non-blocking payoff
// (AC4 without the classic blocking window). It runs as st's consumer.
// A decision reached here is told to every other participant: the
// whole point of the acceptor quorum is that the outcome depends on no
// single node.
func (p *Participant) resolvePaxosInDoubt(ctx context.Context, st *txState) error {
	commit, ballot, err := p.paxosLead(ctx, st, 0)
	if err != nil {
		return err
	}
	if ballot >= 0 {
		p.paxosTell(st, commit, true)
	}
	if !st.sub.Done {
		m := protocol.OutcomeMessage(st.id, commit)
		p.applyOutcome(st, p.name, &m, commit)
	}
	return nil
}
