package live

import (
	"errors"
	"fmt"

	"repro/internal/core"
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
	if m.Presume == core.VariantPaxos {
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
	logless := m.Presume.Row().LoglessVote
	tx := core.ParseTxID(m.Tx)
	vote := p.prepareLocal(tx)
	if vote == protocol.VoteYes && !logless {
		// The announced presumption rides in the record's payload so a
		// restart recovers this transaction under the coordinator's
		// variant, not whatever this node happens to be configured with.
		//
		// A logless vote forces nothing — that is the whole point of
		// the 1PC fast path. The vote carries the redo payload instead,
		// and its durability is the coordinator's forced decision
		// record; a crash here loses only in-memory state the abort
		// presumption already covers.
		if err := p.force(wal.Record{Tx: m.Tx, Node: p.name, Kind: "Prepared", Data: presumeData(m.Presume)}); err != nil {
			vote = protocol.VoteNo
		}
	}
	if p.met != nil {
		p.met.CostSub(m.Tx, p.name, m.Presume.Row().Name, vote == protocol.VoteReadOnly)
	}
	switch vote {
	case protocol.VoteNo:
		p.recordSubDecisionLocked(st, false)
		p.completeResources(tx, false)
		p.finishLocked(st, false)
	case protocol.VoteYes:
		st.prepared = true
	default:
		// Read-only (§4): this subordinate is out of the transaction —
		// no log record, no phase two. Drop the table entry once the
		// vote is away.
		defer p.forget(m.Tx)
	}
	st.voteMsg = protocol.Message{Type: protocol.MsgVote, Tx: m.Tx, Vote: vote}
	if vote == protocol.VoteYes && logless {
		st.voteMsg.Payload = p.redoPayload(tx)
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
		mt := protocol.MsgAbort
		if committed {
			mt = protocol.MsgCommit
		}
		_ = p.sendExtra(from, protocol.Message{Type: mt, Tx: m.Tx})
	case !committed && m.Presume != core.VariantPaxos:
		_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgVote, Tx: m.Tx, Vote: protocol.VoteNo})
	}
}

// handleDelegateLocked runs the last-agent path (§4): the combined
// "prepare, then you decide" message. The agent prepares, decides
// unilaterally, forces the decision, applies it, and answers with the
// outcome — a single round trip, with the agent's End written
// immediately (the reply doubles as its acknowledgment).
func (p *Participant) handleDelegateLocked(st *txState, from string, m protocol.Message) {
	st.presume = m.Presume
	tx := core.ParseTxID(m.Tx)

	vote := p.prepareLocal(tx)
	if vote == protocol.VoteYes {
		// The decision is commit: force it before answering. Failure to
		// log downgrades the decision to abort — nothing has been
		// promised yet.
		if err := p.force(wal.Record{Tx: m.Tx, Node: p.name, Kind: "Committed"}); err != nil {
			vote = protocol.VoteNo
		}
	}
	if vote == protocol.VoteNo {
		// A last agent's abort is lazy under PA only: unlike a plain
		// subordinate's, it is forced under Paxos and 1PC too.
		rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: "Aborted"}
		if m.Presume == core.VariantPA {
			_ = p.lazy(rec)
		} else {
			_ = p.force(rec)
		}
		p.recordSubDecisionLocked(st, false)
		p.completeResources(tx, false)
		p.finishLocked(st, false)
		_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
		_ = p.send(from, protocol.Message{Type: protocol.MsgAbort, Tx: m.Tx})
		return
	}
	// Commit (a read-only prepare also answers commit, with nothing
	// logged — there is nothing to redo).
	p.recordSubDecisionLocked(st, true)
	p.completeResources(tx, true)
	p.finishLocked(st, true)
	_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
	_ = p.send(from, protocol.Message{Type: protocol.MsgCommit, Tx: m.Tx})
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
	row := st.presume.Row()

	tx := core.ParseTxID(m.Tx)
	if commit && len(m.Payload) > 0 && !st.prepared {
		// A redo-bearing Commit redelivered to a voter with no memory of
		// the transaction (it crashed after its logless yes vote): the
		// coordinator's decision record carried our write-set here.
		p.applyRedo(tx, m.Payload)
	}
	// Whether the record is forced is the variant's row. PC commits and
	// PA aborts are presumed. Paxos outcomes are never forced anywhere —
	// the acceptor quorum is the durable truth. A 1PC voter's outcome
	// records are all lazy: the coordinator's forced decision record is
	// the durable truth for the whole tree.
	rec := wal.Record{Tx: m.Tx, Node: p.name, Kind: "Committed"}
	if !commit {
		rec.Kind = "Aborted"
	}
	if row.SubForces(commit) {
		if err := p.force(rec); err != nil {
			return // stay prepared; a retransmission retries
		}
	} else {
		_ = p.lazy(rec)
	}
	p.recordSubDecisionLocked(st, commit)
	heur := p.completeResources(tx, commit)
	p.finishLocked(st, commit)
	_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
	if row.Acks(commit) {
		_ = p.send(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx, Heuristics: heur})
	} else if !commit && !st.prepared {
		// An abort reaching a subordinate that never prepared (a
		// read-only voter, or one the Prepare never reached) is
		// acknowledged whatever the variant: the coordinator of a
		// non-abort presumption holds the abort until everyone it told
		// has answered.
		_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
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
func (p *Participant) reack(from, tx string, v core.Variant, committed, commit bool) {
	if committed == commit && v.Row().Acks(commit) {
		_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgAck, Tx: tx})
	}
}

// handleInquire answers a recovery inquiry: from the decided table
// when the outcome is known, with InProgress when the transaction is
// still live here (a coordinator mid-collection, or this node itself
// prepared and in doubt — its fate may yet go either way, so a
// presumption answer would race the real decision), and only for
// transactions with no state at all by presumption: the one the
// inquirer's Prepare announced, which the inquiry carries, or this
// node's configured variant's when it carries none. The decided table
// forgets an entry only once that presumption answers it correctly
// (or nobody can still ask); durable state survives restarts via the
// Start-time log replay that rebuilds the decided table.
func (p *Participant) handleInquire(from string, m protocol.Message) {
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	_, active := sh.txs[m.Tx]
	sh.mu.Unlock()
	var out protocol.OutcomeKind
	switch {
	case known && d.committed():
		out = protocol.OutcomeCommit
	case known:
		out = protocol.OutcomeAbort
	case active:
		out = protocol.OutcomeInProgress
	default:
		// The presumption answers. Under 1PC (abort) this is what
		// makes the logless voter safe: had the coordinator decided
		// commit, its forced decision record would still be here
		// answering from the decided table. PN never forgets a pending
		// transaction before its End, so no memory of it means commit
		// processing hasn't decided yet: ask again later. The baseline
		// presumes nothing; the inquirer stays blocked.
		v := p.variant
		if m.Presume != core.VariantBaseline {
			v = m.Presume
		}
		out = v.Row().NoInfo
	}
	_ = p.send(from, protocol.Message{Type: protocol.MsgOutcome, Tx: m.Tx, Outcome: out})
}

// handleOutcomeReply consumes a recovery answer. Definite answers run
// normal phase two; Unknown and InProgress leave the transaction in
// doubt for the next inquiry round.
func (p *Participant) handleOutcomeReply(from string, m protocol.Message) {
	// An outcome answered to a collecting coordinator (a Paxos acceptor
	// short-circuiting a decided transaction) resolves its fast-path
	// select, never the subordinate path.
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	st, ok := sh.txs[m.Tx]
	isCoord := ok && st.isCoord
	var ch chan envelope
	if isCoord {
		ch = st.decision
	}
	sh.mu.Unlock()
	if isCoord {
		if ch != nil {
			select {
			case ch <- envelope{from: from, msg: m}:
			default:
			}
		}
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
	tx := core.ParseTxID(txName)
	vote := p.prepareLocal(tx)
	if vote == protocol.VoteYes {
		// No Prepare has announced a variant yet; st.presume's zero
		// value (VariantBaseline) is what phase two will run under,
		// so it is also what recovery must restore.
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: "Prepared", Data: presumeData(st.presume)}); err != nil {
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
	st.voteMsg = protocol.Message{Type: protocol.MsgVote, Tx: txName, Vote: vote, Unsolicited: true}
	return p.send(coordinator, st.voteMsg)
}

// prepareLocal prepares every local resource and folds their votes:
// any failure or no means no; all read-only means read-only.
func (p *Participant) prepareLocal(tx core.TxID) protocol.VoteValue {
	vote := protocol.VoteReadOnly
	for _, r := range p.res {
		pr, err := r.Prepare(tx)
		if err != nil || pr.Vote == core.VoteNo {
			return protocol.VoteNo
		}
		if pr.Vote == core.VoteYes {
			vote = protocol.VoteYes
		}
	}
	return vote
}

// completeResources applies the outcome to every local resource and
// collects heuristic reports from any that had already completed
// unilaterally. A crashed participant touches nothing: its resources'
// fate belongs to the restarted process image.
func (p *Participant) completeResources(tx core.TxID, commit bool) []protocol.HeuristicReport {
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
		hc, ok := r.(core.HeuristicCapable)
		if !ok || !errors.Is(err, core.ErrHeuristicConflict) {
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
