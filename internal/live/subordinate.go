package live

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// handlePrepare runs a subordinate's phase one for one transaction:
// prepare local resources, force the prepared record on a yes vote,
// and answer. The presumption announced on the Prepare is remembered
// so phase two and recovery follow the coordinator's variant.
func (p *Participant) handlePrepare(st *txState, from string, m *protocol.Message) {
	defer p.retire(st)
	if st.done {
		p.answerDecided(from, m, subDecision(st.committed, st.presume))
		return
	}
	if m.Delegate {
		p.handleDelegate(st, from, m)
		return
	}
	if m.Presume == protocol.VariantPaxos {
		// Paxos Commit phase one: the vote is a ballot-0 accept sent to
		// the acceptor set, not a MsgVote (handled wholly in paxos.go;
		// duplicate Prepares are screened by the vote-sent flag there).
		st.presume = m.Presume
		p.handlePaxosPrepare(st, from, m)
		return
	}
	if st.prepared {
		// Duplicate Prepare (the coordinator retransmitted): repeat the
		// vote we already sent.
		_ = p.sendExtra(from, st.voteMsg)
		return
	}
	_, _ = p.vote(st, from, m.Presume, false, false)
}

// vote runs a subordinate's phase one under the coordinator's variant
// v and hands the vote to the coordinator: sent on the wire, or, when
// reply is set, left to the caller to carry back in its reply to the
// coordinator's last work request, where it costs no packet of its
// own. unsolicited marks a vote no Prepare asked for. A read-only voter
// is out of the transaction (§4 Read Only): no log record, no phase
// two; its entry goes once the vote is away, and its kept vote answers
// what still reaches it. A no-voter knows the outcome. Both are done
// with the transaction, and so is their accounting.
func (p *Participant) vote(st *txState, to string, v protocol.Variant, unsolicited, reply bool) (protocol.VoteValue, error) {
	st.presume = v
	vote := p.prepareVote(st, unsolicited)
	if p.met != nil {
		p.met.CostSub(st.id, p.name, v.String(), vote == protocol.VoteReadOnly)
	}
	var err error
	if reply {
		p.replied(st.voteMsg, false)
	} else {
		err = p.send(to, st.voteMsg)
	}
	if vote == protocol.VoteReadOnly {
		// Kept, aging, so a retransmitted Prepare gets the same vote
		// without preparing every resource again and opening a second
		// ledger entry, and an abort sent to every subordinate is
		// answered without a record (answerDecided).
		p.publishDecision(st.id, readOnlyDecision(st.presume), false)
		p.drop(st)
	}
	if p.met != nil && vote != protocol.VoteYes {
		if vote == protocol.VoteNo {
			p.met.CostOutcome(st.id, "aborted", -1)
		}
		p.met.CostNodeDone(st.id, p.name)
	}
	return vote, err
}

// handleDelegate runs the last-agent path (§4): the combined
// "prepare, then you decide" message. The agent prepares (unless
// AbortsRepeat answers a repeat), decides, writes the decision as the
// rulebook asks of a decision owner, applies it, and answers with the
// outcome. An acknowledged decision is held, End unwritten, until the
// coordinator acks it: until then the coordinator may ask again.
func (p *Participant) handleDelegate(st *txState, from string, m *protocol.Message) {
	st.presume = m.Presume
	tx := protocol.ParseTxID(m.Tx)
	vote := protocol.VoteNo
	if !m.Repeat || !m.Presume.AbortsRepeat() {
		vote = p.prepareLocal(tx)
	}
	rd := protocol.Round{ReadOnly: vote == protocol.VoteReadOnly, Voted: true}
	commit := vote != protocol.VoteNo
	for {
		d := m.Presume.Decide(commit, rd)
		rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecAborted}
		if commit {
			rec.Kind = protocol.RecCommitted
		}
		if d.Acked {
			rec.Data = protocol.LogRecord{Kind: rec.Kind, Subs: []string{from}}.Encode()
		}
		if err := p.write(rec, d.Write); err != nil && commit {
			commit = false // nothing is promised yet: a failed commit force aborts
			continue
		}
		p.publishDecision(m.Tx, subDecision(commit, st.presume), d.Acked)
		p.completeResources(tx, commit)
		p.finish(st, commit)
		if d.Acked {
			p.awaitLateAcks(nil, m.Tx, []string{from}, false)
		} else {
			_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecEnd})
		}
		_ = p.send(from, protocol.OutcomeMessage(m.Tx, commit))
		return
	}
}

// applyOutcome runs a subordinate's phase two when the decision
// arrives (directly, via retransmission, or as a recovery answer):
// log it per the transaction's presumption, complete resources, and
// acknowledge if the variant expects it. The entry then retires.
func (p *Participant) applyOutcome(st *txState, from string, m *protocol.Message, commit bool) {
	defer p.retire(st)

	if !st.done && !st.prepared {
		st.sh.mu.Lock()
		_, known := st.sh.decidedLocked(st.id)
		st.sh.mu.Unlock()
		if known {
			// The outcome table says this transaction was decided and
			// fully applied here, yet the entry has seen none of it: a
			// late message resurrected a blank state after retirement.
			// Applying the outcome again would double the writes and
			// re-open the cost ledger — a duplicate delivery, nothing to
			// re-apply.
			return
		}
	}

	if st.done {
		p.reack(from, m.Tx, st.presume, st.committed, commit)
		return
	}

	// The variant rules come from the Prepare's announced presumption;
	// for an outcome with no preceding Prepare (redelivery after this
	// node forgot, or an abort that overtook the Prepare), fall back to
	// our configured variant — and record it, so a duplicate of the
	// outcome is later answered under the rules it was applied under.
	if !st.prepared {
		st.presume = p.variant
	}
	a := st.presume.Apply(commit, st.prepared, st.prepared)

	tx := protocol.ParseTxID(m.Tx)
	if commit && len(m.Payload) > 0 && !st.prepared {
		// A redo-bearing Commit redelivered to a voter with no memory of
		// the transaction (it crashed after its logless yes vote): the
		// coordinator's decision record carried our write-set here.
		p.applyRedo(tx, m.Payload)
	}
	rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecCommitted}
	if !commit {
		rec.Kind = protocol.RecAborted
	}
	if err := p.write(rec, a.Write); err != nil && a.Write == protocol.Forced {
		return // stay prepared; a retransmission retries
	}
	p.recordSubDecision(st, commit)
	heur := p.completeResources(tx, commit)
	p.finish(st, commit)
	_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: protocol.RecEnd})
	if a.Ack {
		// An outcome reaching a subordinate that never prepared is
		// recovery traffic, not one of the paper's flows.
		_ = p.sendFlow(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx, Heuristics: heur}, !st.prepared)
	}
	if p.met != nil {
		out := "committed"
		if !commit {
			out = "aborted"
		}
		p.met.CostOutcome(m.Tx, out, -1)
		// An acceptor whose ballot-0 bundle is still incomplete has a
		// forced record and a flow left to spend; its ledger entry
		// closes when the bundle does (handlePaxosAccept).
		if !st.bundlePending() {
			p.met.CostNodeDone(m.Tx, p.name)
		}
	}
}

// reack answers a duplicate outcome for a transaction this node
// has already applied with committed under variant v: the coordinator
// missed our ack, so send it again if the variant acknowledges this
// outcome at all.
func (p *Participant) reack(from, tx string, v protocol.Variant, committed, commit bool) {
	if committed == commit && v.Acks(commit) {
		_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgAck, Tx: tx})
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
	k := protocol.KnowsNothing
	switch {
	case known && d.readOnly():
		// A read-only voter left before the decision.
	case known && d.committed():
		k = protocol.KnowsCommit
	case known:
		k = protocol.KnowsAbort
	case active:
		k = protocol.KnowsUndecided
	}
	_ = p.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: protocol.Answer(k, m.Presume, p.variant)})
}

// UnsolicitedVote prepares this participant's resources on its own
// initiative and sends its vote to the coordinator before any Prepare
// arrives (§4 Unsolicited Vote). v is the coordinator's variant, which
// no Prepare will announce: the prepared record names it, and phase
// two and recovery follow it. The vote waits in the transaction's
// inbox at the coordinator, which skips this subordinate's Prepare
// when Commit runs.
func (p *Participant) UnsolicitedVote(coordinator, txName string, v protocol.Variant) error {
	_, err := p.volunteer(coordinator, txName, v, false)
	return err
}

// Volunteer is UnsolicitedVote for a vote that leaves with the reply
// to the coordinator's last work request instead of on the wire: it
// prepares under v and returns the vote for the caller to carry back.
// The coordinator hands it to Commit with PostVotes. The cost ledger
// counts it as the voter's vote flow, piggybacked: it takes no packet
// of its own, and its trace event names no peer. Call it only once
// the transaction has taken every lock it will take anywhere, or for a
// slice that writes: a read-only vote releases this node's locks.
func (p *Participant) Volunteer(txName string, v protocol.Variant) (protocol.VoteValue, error) {
	return p.volunteer("", txName, v, true)
}

func (p *Participant) volunteer(coordinator, txName string, v protocol.Variant, reply bool) (vote protocol.VoteValue, err error) {
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
		switch {
		case st.done:
			vote, err = protocol.VoteNo, fmt.Errorf("live: unsolicited vote for decided transaction %s", txName)
		case st.prepared:
			vote = st.voteMsg.Vote
			if reply {
				p.replied(st.voteMsg, true)
			} else {
				_ = p.sendExtra(coordinator, st.voteMsg)
			}
		default:
			vote, err = p.vote(st, coordinator, v, true, reply)
		}
	})
	return vote, err
}

// prepareVote prepares the local resources and sets st.voteMsg,
// the vote to send. A yes writes the prepare record the rulebook asks
// for under st.presume, its payload naming the presumption so a
// restart recovers under the coordinator's variant, not this node's
// (for PN it stands for AgentPending too); a logless yes carries its
// redo instead. A failed force, like a no, aborts here.
func (p *Participant) prepareVote(st *txState, unsolicited bool) protocol.VoteValue {
	tx := protocol.ParseTxID(st.id)
	pr := st.presume.SubPrepare(true)
	vote := p.prepareLocal(tx)
	if vote == protocol.VoteYes && pr.Prepared {
		r := protocol.LogRecord{Kind: protocol.RecPrepared, Presume: st.presume}
		if err := p.force(wal.Record{Tx: st.id, Node: p.name, Kind: r.Kind, Data: r.Encode()}); err != nil {
			vote = protocol.VoteNo
		}
	}
	switch vote {
	case protocol.VoteNo:
		p.recordSubDecision(st, false)
		p.completeResources(tx, false)
		p.finish(st, false)
	case protocol.VoteYes:
		st.prepared = true
	}
	st.voteMsg = protocol.Message{Type: protocol.MsgVote, Tx: st.id, Vote: vote, Unsolicited: unsolicited}
	if vote == protocol.VoteYes && !pr.Prepared {
		st.voteMsg.Payload = p.redoPayload(tx)
	}
	return vote
}

// prepareLocal prepares every local resource and folds their votes:
// any failure or no means no; all read-only means read-only.
func (p *Participant) prepareLocal(tx protocol.TxID) protocol.VoteValue {
	vote := protocol.VoteReadOnly
	for _, r := range p.res {
		pr, err := r.Prepare(tx)
		if err != nil || pr.Vote == protocol.VoteNo {
			return protocol.VoteNo
		}
		if pr.Vote == protocol.VoteYes {
			vote = protocol.VoteYes
		}
	}
	return vote
}

// completeResources applies the outcome to every local resource and
// collects heuristic reports from any that had already completed
// unilaterally. A crashed participant touches nothing: its resources'
// fate belongs to the restarted process image.
func (p *Participant) completeResources(tx protocol.TxID, commit bool) []protocol.HeuristicReport {
	if p.Crashed() {
		return nil
	}
	var heur []protocol.HeuristicReport
	for _, r := range p.res {
		var err error
		if commit {
			err = r.Commit(tx)
		} else {
			err = r.Abort(tx)
		}
		if err == nil {
			continue
		}
		hc, ok := r.(protocol.HeuristicCapable)
		if !ok || !errors.Is(err, protocol.ErrHeuristicConflict) {
			continue
		}
		taken, tookCommit := hc.HeuristicTaken(tx)
		if !taken {
			continue
		}
		damage := tookCommit != commit
		heur = append(heur, protocol.HeuristicReport{Node: p.name, Committed: tookCommit, Damage: damage})
		if p.met != nil {
			p.met.Heuristic(p.name, tookCommit)
			if damage {
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

// finish marks a transaction decided at this node (the caller has
// already completed resources), recording the outcome for duplicates
// and inquiries.
func (p *Participant) finish(st *txState, commit bool) {
	if st.done {
		return
	}
	st.done = true
	st.committed = commit
	p.recordSubDecision(st, commit)
}
