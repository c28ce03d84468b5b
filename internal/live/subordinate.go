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
func (p *Participant) handlePrepare(from string, m protocol.Message) {
	st, d, decided := p.liveState(m.Tx)
	if decided {
		// Decided here and retired: a late duplicate, or a Prepare an
		// abort overtook. It must not prepare, lock or log again.
		p.answerDecidedPrepare(from, m, d.committed())
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer p.retireLocked(st)

	if st.done {
		p.answerDecidedPrepare(from, m, st.committed)
		return
	}
	if m.Delegate {
		p.handleDelegateLocked(st, from, m)
		return
	}
	if m.Presume == protocol.VariantPaxos {
		// Paxos Commit phase one: the vote is a ballot-0 accept sent to
		// the acceptor set, not a MsgVote (handled wholly in paxos.go;
		// duplicate Prepares are screened by the vote-sent flag there).
		st.presume = m.Presume
		p.handlePaxosPrepareLocked(st, from, m)
		return
	}
	if st.prepared {
		// Duplicate Prepare (the coordinator retransmitted): repeat the
		// vote we already sent.
		_ = p.sendExtra(from, st.voteMsg)
		return
	}

	st.presume = m.Presume
	vote := p.prepareVoteLocked(st, false)
	if p.met != nil {
		p.met.CostSub(m.Tx, p.name, m.Presume.String(), vote == protocol.VoteReadOnly)
	}
	if vote == protocol.VoteReadOnly {
		// Read-only (§4): this subordinate is out of the transaction —
		// no log record, no phase two. Drop the table entry once the
		// vote is away.
		defer p.forget(m.Tx)
	}
	_ = p.send(from, st.voteMsg)
	if p.met != nil && vote != protocol.VoteYes {
		// No-voters and read-only voters are out of phase two: their
		// accounting is final once the vote is away.
		p.met.CostNodeDone(m.Tx, p.name)
	}
}

// answerDecidedPrepare answers a Prepare for a transaction already
// decided here — an abort overtook it, or it is a late duplicate. A
// duplicate delegation repeats the decision. Otherwise voting no is
// always safe for an aborted transaction, and a committed one can only
// see a duplicate Prepare, which needs no answer. Paxos Commit has no
// MsgVote at all: a decided transaction just goes silent (the
// coordinator resolves through the acceptors).
func (p *Participant) answerDecidedPrepare(from string, m protocol.Message, committed bool) {
	switch {
	case m.Delegate:
		_ = p.sendExtra(from, protocol.OutcomeMessage(m.Tx, committed))
	case !committed && m.Presume != protocol.VariantPaxos:
		_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgVote, Tx: m.Tx, Vote: protocol.VoteNo})
	}
}

// handleDelegateLocked runs the last-agent path (§4): the combined
// "prepare, then you decide" message. The agent prepares (unless
// AbortsRepeat answers a repeat), decides, writes the decision as the
// rulebook asks of a decision owner, applies it, and answers with the
// outcome. An acknowledged decision is held, End unwritten, until the
// coordinator acks it: until then the coordinator may ask again.
func (p *Participant) handleDelegateLocked(st *txState, from string, m protocol.Message) {
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
		rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: "Aborted"}
		if commit {
			rec.Kind = "Committed"
		}
		if d.Acked {
			rec.Data = ackersData([]string{from})
		}
		if err := p.write(rec, d.Write); err != nil && commit {
			commit = false // nothing is promised yet: a failed commit force aborts
			continue
		}
		p.publishDecision(m.Tx, subDecision(commit, st.presume), d.Acked)
		p.completeResources(tx, commit)
		p.finishLocked(st, commit)
		if d.Acked {
			p.awaitLateAcks(nil, m.Tx, []string{from}, false)
		} else {
			_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
		}
		_ = p.send(from, protocol.OutcomeMessage(m.Tx, commit))
		return
	}
}

// applyOutcome runs a subordinate's phase two when the decision
// arrives (directly, via retransmission, or as a recovery answer):
// log it per the transaction's presumption, complete resources, and
// acknowledge if the variant expects it. The entry then retires.
func (p *Participant) applyOutcome(from string, m protocol.Message, commit bool) {
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	st, exists := sh.txs[m.Tx]
	if known && !exists {
		// Decided and retired: a duplicate delivery, not a transaction
		// to re-apply. It is re-acked exactly as the live entry would
		// have been, under the presumption the entry ran with.
		sh.mu.Unlock()
		if v, sub := d.subVariant(); sub {
			p.reack(from, m.Tx, v, d.committed(), commit)
		} else if d.committed() == commit {
			// A coordinator's entry: the sender is the last agent it
			// delegated to, holding its decision until this ack.
			_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
		}
		return
	}
	if !exists {
		st = sh.stateLocked(m.Tx)
	}
	sh.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	defer p.retireLocked(st)

	if known && !st.done && !st.prepared && !st.isCoord {
		// The outcome table says this transaction was decided and fully
		// applied here, yet the entry has seen none of it: a late
		// message resurrected a blank state after retirement. Applying
		// the outcome again would double the writes and re-open the
		// cost ledger — a duplicate delivery, nothing to re-apply.
		return
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
	rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: "Committed"}
	if !commit {
		rec.Kind = "Aborted"
	}
	if err := p.write(rec, a.Write); err != nil && a.Write == protocol.Forced {
		return // stay prepared; a retransmission retries
	}
	p.recordSubDecisionLocked(st, commit)
	heur := p.completeResources(tx, commit)
	p.finishLocked(st, commit)
	_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
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
func (p *Participant) handleInquire(from string, m protocol.Message) {
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	_, active := sh.txs[m.Tx]
	sh.mu.Unlock()
	k := protocol.KnowsNothing
	switch {
	case known && d.committed():
		k = protocol.KnowsCommit
	case known:
		k = protocol.KnowsAbort
	case active:
		k = protocol.KnowsUndecided
	}
	_ = p.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: protocol.Answer(k, m.Presume, p.variant)})
}

// handleOutcomeReply consumes a recovery answer. Definite answers run
// normal phase two; Unknown and InProgress leave the transaction in
// doubt for the next inquiry round.
func (p *Participant) handleOutcomeReply(from string, m protocol.Message) {
	// An outcome answered to a coordinator (a Paxos acceptor
	// short-circuiting a decided transaction, or a delegating
	// coordinator's agent) resolves its wait, never the subordinate
	// path.
	if p.toCoordinator(from, m) {
		return
	}
	switch m.Outcome {
	case protocol.OutcomeCommit:
		p.applyOutcome(from, protocol.Message{Type: protocol.MsgCommit, Tx: m.Tx}, true)
	case protocol.OutcomeAbort:
		p.applyOutcome(from, protocol.Message{Type: protocol.MsgAbort, Tx: m.Tx}, false)
	}
}

// UnsolicitedVote prepares this participant's resources on its own
// initiative and sends its vote to the coordinator before any Prepare
// arrives (§4 Unsolicited Vote). The coordinator buffers the vote and
// skips this subordinate's Prepare when Commit runs.
func (p *Participant) UnsolicitedVote(coordinator, txName string) error {
	st, _, decided := p.liveState(txName)
	if decided {
		return fmt.Errorf("live: unsolicited vote for decided transaction %s", txName)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer p.retireLocked(st)
	if st.done {
		return fmt.Errorf("live: unsolicited vote for decided transaction %s", txName)
	}
	if st.prepared {
		_ = p.sendExtra(coordinator, st.voteMsg)
		return nil
	}
	// No Prepare has announced a variant yet; st.presume's zero value
	// (VariantBaseline) is what phase two will run under, so it is also
	// what recovery must restore.
	p.prepareVoteLocked(st, true)
	return p.send(coordinator, st.voteMsg)
}

// prepareVoteLocked prepares the local resources and sets st.voteMsg,
// the vote to send. A yes writes the prepare record the rulebook asks
// for under st.presume, its payload naming the presumption so a
// restart recovers under the coordinator's variant, not this node's
// (for PN it stands for AgentPending too); a logless yes carries its
// redo instead. A failed force, like a no, aborts here. Caller holds
// st.mu.
func (p *Participant) prepareVoteLocked(st *txState, unsolicited bool) protocol.VoteValue {
	tx := protocol.ParseTxID(st.id)
	pr := st.presume.SubPrepare(true)
	vote := p.prepareLocal(tx)
	if vote == protocol.VoteYes && pr.Prepared {
		if err := p.force(wal.Record{Tx: st.id, Node: p.name, Kind: "Prepared", Data: presumeData(st.presume)}); err != nil {
			vote = protocol.VoteNo
		}
	}
	switch vote {
	case protocol.VoteNo:
		p.recordSubDecisionLocked(st, false)
		p.completeResources(tx, false)
		p.finishLocked(st, false)
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

// finishLocked marks a transaction decided at this node (caller holds
// st.mu and has already completed resources), recording the outcome
// for duplicates and inquiries and releasing any recovery waiter.
func (p *Participant) finishLocked(st *txState, commit bool) {
	if st.done {
		return
	}
	st.done = true
	st.committed = commit
	close(st.resolved)
	p.recordSubDecisionLocked(st, commit)
}
