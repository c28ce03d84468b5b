package live

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// handlePrepare drives st's subordinate part (protocol.Sub) through a
// Prepare: the answer from the decision, a delegation, the kept vote
// again, or phase one here. The presumption announced on the Prepare
// is remembered so phase two and recovery follow the coordinator's
// variant.
func (p *Participant) handlePrepare(st *txState, from string, m *protocol.Message) {
	defer p.retire(st)
	if m.Presume == protocol.VariantPaxos && !st.sub.Done && !m.Delegate {
		// Paxos Commit phase one: the vote is a ballot-0 accept sent to
		// the acceptor set, not a MsgVote (handled wholly in paxos.go;
		// duplicate Prepares are screened by the vote-sent flag there).
		st.sub.Presume = m.Presume
		p.handlePaxosPrepare(st, m)
		return
	}
	step := st.sub.Prepare(m)
	switch {
	case step.Do == protocol.DoReply:
		_ = p.sendExtra(from, step.Msg)
	case m.Delegate && step.Do != protocol.DoNothing:
		p.decide(st, from, step.Do == protocol.DoPrepare)
	case step.Do == protocol.DoPrepare:
		ask := protocol.Asked
		if m.Repeat {
			ask = protocol.Resent
		}
		_, _ = p.vote(st, from, ask)
	}
}

// vote prepares the local resources and casts st's vote as
// protocol.Sub.Voted asks: sent to the coordinator, or, for a
// volunteer, left to the caller to carry back in its reply to the
// coordinator's last work request, where it costs no packet of its
// own. The Prepared record's payload names the presumption, so a
// restart recovers under the coordinator's variant, not this node's
// (for PN it stands for AgentPending too). A failed force, like a no,
// aborts here. A no-voter and a read-only voter are done with the
// transaction, and so is their accounting, but for the extra vote a
// resent Prepare drew, which opens no ledger entry.
func (p *Participant) vote(st *txState, to string, ask protocol.Ask) (protocol.VoteValue, error) {
	tx := protocol.ParseTxID(st.id)
	vote := protocol.PrepareAll(p.res, tx).Vote
	step := st.sub.Voted(st.id, vote, true, ask)
	if step.Force.Prepared {
		r := protocol.LogRecord{Kind: protocol.RecPrepared, Presume: st.sub.Presume}
		if err := p.force(wal.Record{Tx: st.id, Node: p.name, Kind: r.Kind, Data: r.Encode()}); err != nil {
			vote = protocol.VoteNo
			step = st.sub.Voted(st.id, vote, true, ask)
		}
	}
	if step.Then == protocol.Aborts {
		p.recordSubDecision(st, false)
		p.complete(tx, false)
	}
	if step.Redo {
		st.sub.Redo = p.redoPayload(tx)
	}
	if step.Extra {
		_ = p.sendExtra(to, st.sub.Vote())
		p.drop(st)
		return vote, nil
	}
	if p.met != nil {
		p.met.CostSub(st.id, p.name, st.sub.Presume.String(), vote == protocol.VoteReadOnly)
	}
	var err error
	if ask == protocol.Volunteered {
		p.replied(st.sub.Vote(), false)
	} else {
		err = p.send(to, st.sub.Vote())
	}
	if step.Then == protocol.Leaves {
		p.drop(st)
	}
	if p.met != nil && step.Then != protocol.Stays {
		if step.Then == protocol.Aborts {
			p.met.CostOutcome(st.id, "aborted", -1)
		}
		p.met.CostNodeDone(st.id, p.name)
	}
	return vote, err
}

// decide runs the last-agent path (§4) for the combined "prepare, then
// you decide" message: the agent prepares (unless protocol.Sub.Delegate
// answered a repeat without it), decides, writes the decision as the
// rulebook asks of a decision owner, applies it, and answers with the
// outcome. An acknowledged decision is held, End unwritten, until the
// coordinator acks it: until then the coordinator may ask again.
func (p *Participant) decide(st *txState, from string, prepare bool) {
	tx := protocol.ParseTxID(st.id)
	vote := protocol.VoteNo
	if prepare {
		vote = protocol.PrepareAll(p.res, tx).Vote
	}
	for {
		commit, d := st.sub.Decide(vote)
		rec := wal.Record{Tx: st.id, Node: p.name, Kind: protocol.RecAborted}
		if commit {
			rec.Kind = protocol.RecCommitted
		}
		if d.Acked {
			rec.Data = protocol.LogRecord{Kind: rec.Kind, Subs: []string{from}}.Encode()
		}
		if err := p.write(rec, d.Write); err != nil && commit {
			vote = protocol.VoteNo // nothing is promised yet: a failed commit force aborts
			continue
		}
		p.publishDecision(st.id, subDecision(commit, st.sub.Presume), d.Acked)
		p.complete(tx, commit)
		st.sub.Finish(commit)
		if d.Acked {
			p.awaitAcks(st.id, []string{from}, nil, false)
		} else {
			_ = p.lazy(wal.Record{Tx: st.id, Node: p.name, Kind: protocol.RecEnd})
		}
		_ = p.send(from, protocol.OutcomeMessage(st.id, commit))
		return
	}
}

// applyOutcome runs a subordinate's phase two when the decision
// arrives (directly, via retransmission, or as a recovery answer), as
// protocol.Sub.Outcome asks: re-ack a duplicate, or log the outcome,
// complete the resources and acknowledge. The entry then retires.
func (p *Participant) applyOutcome(st *txState, from string, m *protocol.Message, commit bool) {
	defer p.retire(st)
	own := protocol.Own{Variant: p.variant, Logged: st.sub.Prepared}
	if !st.sub.Done && !st.sub.Prepared {
		// Applying the outcome on a blank entry the decided table already
		// answers for would double the writes and re-open the cost
		// ledger: a duplicate delivery, nothing to re-apply.
		st.sh.mu.Lock()
		_, own.Retired = st.sh.decidedLocked(st.id)
		st.sh.mu.Unlock()
	}
	step := st.sub.Outcome(m.Tx, commit, own)
	switch step.Do {
	case protocol.DoReply:
		_ = p.sendExtra(from, step.Msg)
		return
	case protocol.DoNothing:
		return
	}
	tx := protocol.ParseTxID(m.Tx)
	if commit && step.Unasked && len(m.Payload) > 0 {
		// A redo-bearing Commit redelivered to a voter with no memory of
		// the transaction (it crashed after its logless yes vote): the
		// coordinator's decision record carried our write-set here.
		p.applyRedo(tx, m.Payload)
	}
	rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecCommitted}
	if !commit {
		rec.Kind = protocol.RecAborted
	}
	if err := p.write(rec, step.Write); err != nil && step.Write == protocol.Forced {
		return // stay prepared; a retransmission retries
	}
	p.recordSubDecision(st, commit)
	heur := p.complete(tx, commit)
	st.sub.Finish(commit)
	_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecEnd})
	if step.Ack {
		_ = p.sendFlow(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx, Heuristics: heur}, step.Unasked)
	}
	if p.met != nil {
		out := "committed"
		if !commit {
			out = "aborted"
		}
		p.met.CostOutcome(m.Tx, out, -1)
		// An acceptor whose ballot-0 bundle is still incomplete has a
		// forced record and a flow left to spend; its ledger entry
		// closes when the bundle does (handlePaxosAcceptor).
		if !st.bundlePending() {
			p.met.CostNodeDone(m.Tx, p.name)
		}
	}
}

// handleInquire answers a recovery inquiry by the rulebook
// (protocol.Answer) from what this node holds: the decided table, or a
// live entry (a coordinator mid-collection or awaiting its last agent,
// or this node itself in doubt). The decided table forgets an entry
// only once the presumption answers it correctly (or nobody can still
// ask), and the Start-time log replay rebuilds it after a restart.
func (p *Participant) handleInquire(from string, m *protocol.Message) {
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	_, active := sh.txs[m.Tx]
	sh.mu.Unlock()
	k := protocol.Knows(known, d.committed(), active)
	_ = p.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: protocol.Answer(k, m.Presume, p.variant)})
}

// Volunteer prepares this participant's resources on its own
// initiative, before any Prepare arrives (§4 Unsolicited Vote), and
// returns the vote for the caller to carry back with its reply to the
// coordinator's last work request. v is the coordinator's variant,
// which no Prepare will announce: the prepared record names it, and
// phase two and recovery follow it. The coordinator hands the vote to
// CommitVariant, which skips this subordinate's Prepare.
// The cost ledger counts it as the voter's vote flow, piggybacked: it
// takes no packet of its own, and its trace event names no peer. Call
// it only once the transaction has taken every lock it will take
// anywhere, or for a slice that writes: a read-only vote releases this
// node's locks.
func (p *Participant) Volunteer(txName string, v protocol.Variant) (vote protocol.VoteValue, err error) {
	if !v.Unsolicited() {
		return protocol.VoteNo, fmt.Errorf("live: %v takes no unsolicited vote", v)
	}
	if p.Crashed() {
		return protocol.VoteNo, ErrCrashed
	}
	st := p.liveState(txName)
	if st == nil {
		return protocol.VoteNo, fmt.Errorf("live: unsolicited vote for decided transaction %s", txName)
	}
	p.call(st, func() {
		defer p.retire(st)
		switch step := st.sub.Volunteer(v); step.Do {
		case protocol.DoNothing:
			vote, err = protocol.VoteNo, fmt.Errorf("live: unsolicited vote for decided transaction %s", txName)
		case protocol.DoReply:
			vote = step.Msg.Vote
			p.replied(step.Msg, true)
		default:
			vote, err = p.vote(st, "", protocol.Volunteered)
		}
	})
	return vote, err
}

// complete applies the outcome to every local resource
// (protocol.CompleteAll) and returns the heuristic reports of any that
// had already completed unilaterally. A crashed participant touches
// nothing: its resources' fate belongs to the restarted process image.
func (p *Participant) complete(tx protocol.TxID, commit bool) []protocol.HeuristicReport {
	if p.Crashed() {
		return nil
	}
	heur := protocol.CompleteAll(p.res, tx, commit, p.name)
	if p.met != nil {
		for _, h := range heur {
			p.met.Heuristic(p.name, h.Committed)
			if h.Damage {
				p.met.Damage(p.name)
			}
		}
	}
	if p.traceOn {
		txName := tx.String()
		p.trc.Add(trace.Event{Node: p.name, Kind: trace.KindUnlock, Tx: txName, Detail: "released(" + txName + ")"})
	}
	return heur
}
