package live

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// Commit runs this participant as coordinator of one transaction with
// the named subordinates, under the participant's configured variant.
// Many Commit calls may run concurrently on one participant; each
// transaction's state lives in its own table entry.
//
// ctx bounds the whole operation. Cancellation during vote collection
// aborts the transaction; cancellation after the decision point (or
// after a last-agent delegation) cannot undo it and returns InDoubt
// with the context's error.
func (p *Participant) Commit(ctx context.Context, txName string, subs []string) (Outcome, error) {
	return p.CommitVariant(ctx, txName, subs, p.variant)
}

// CommitVariant is Commit under an explicit protocol variant,
// overriding the participant's configured one for this transaction
// only. Subordinates follow the presumption announced on the Prepare,
// so a single coordinator can serve mixed-variant traffic — the
// serving daemon uses this to run all four variants over one
// endpoint.
func (p *Participant) CommitVariant(ctx context.Context, txName string, subs []string, v core.Variant) (Outcome, error) {
	start := p.sched.Now()
	out, err := p.runCommit(ctx, txName, subs, v)
	if p.met != nil {
		// The coordinator's cost-ledger entry closes with its End
		// record (endCoord), once every acknowledgment is in.
		p.met.Latency(p.sched.Now() - start)
		p.met.Outcome(out.String())
	}
	return out, err
}

func (p *Participant) runCommit(ctx context.Context, txName string, subs []string, v core.Variant) (Outcome, error) {
	// The logless fast path manages its own registration: its ack
	// collection outlives this call (acks leave the caller's critical
	// path), so the deferred unregister below must not fire for it.
	if v == core.Variant1PC {
		return p.runOnePhase(ctx, txName, subs)
	}
	tx := core.ParseTxID(txName)
	st := p.registerCoord(txName, len(subs))
	defer p.unregisterCoord(txName)
	if p.met != nil {
		p.met.CostBegin(txName, p.name, v.String(), len(subs))
	}

	// Paxos Commit replaces both phases: votes are ballot-0 accepts
	// replicated across the acceptor set, and the decision needs only
	// an acceptor quorum, never this node's log.
	if v == core.VariantPaxos {
		return p.runPaxosCommit(ctx, st, tx, txName, subs)
	}

	// Last Agent (§4): hold the final subordinate out of phase one and
	// delegate the decision to it once everyone else has voted yes.
	agent := ""
	others := subs
	if p.lastAgent && len(subs) > 0 {
		agent = subs[len(subs)-1]
		others = subs[:len(subs)-1]
	}

	// PN forces a pending record, PC a collecting record, before any
	// Prepare leaves: the stable membership list is what lets their
	// presumptions hold through a coordinator crash.
	switch v {
	case core.VariantPN:
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: "Pending", Data: []byte(strings.Join(subs, ","))}); err != nil {
			return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: force pending record: %w", err)
		}
	case core.VariantPC:
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: "Collecting", Data: []byte(strings.Join(subs, ","))}); err != nil {
			return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: force collecting record: %w", err)
		}
	}

	// Harvest unsolicited votes that arrived before Commit was called.
	sh := p.shardFor(txName)
	sh.mu.Lock()
	early := st.early
	st.early = nil
	sh.mu.Unlock()

	// Vote bookkeeping is tree-sized slices, not maps: transaction
	// trees are a handful of subordinates, so membership is a linear
	// scan and the whole structure is two right-sized allocations.
	voted := make([]bool, len(others))
	votedN := 0
	yes := make([]string, 0, len(others))
	for i, s := range others {
		ev, ok := early[s]
		if !ok {
			continue
		}
		voted[i] = true
		votedN++
		switch ev {
		case protocol.VoteNo:
			return p.abortTx(tx, txName, subs, v), nil
		case protocol.VoteYes:
			yes = append(yes, s)
		}
	}

	// Phase one: Prepares in parallel to everyone who has not already
	// volunteered a vote, each announcing the variant's presumption.
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: presumptionOf(v)}
	for i, s := range others {
		if voted[i] {
			continue
		}
		if err := p.send(s, prep); err != nil {
			return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}

	localVote := p.prepareLocal(tx)
	if localVote == protocol.VoteNo {
		return p.abortTx(tx, txName, subs, v), nil
	}

	// Collect the remaining votes, retransmitting Prepare to silent
	// subordinates on the retry policy's backoff schedule.
	if votedN < len(others) {
		alarm := p.newRetryAlarm(p.voteTimeout, txName, "")
		defer alarm.stop()
		for votedN < len(others) {
			select {
			case env := <-st.replies:
				i := indexOf(others, env.from)
				if i < 0 || voted[i] || env.msg.Type != protocol.MsgVote {
					continue
				}
				voted[i] = true
				votedN++
				switch env.msg.Vote {
				case protocol.VoteNo:
					return p.abortTx(tx, txName, subs, v), nil
				case protocol.VoteYes:
					yes = append(yes, env.from)
				}
			case <-alarm.C():
				if alarm.expired() {
					return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: collecting votes for %s: %w", txName, ErrTimeout)
				}
				for i, s := range others {
					if !voted[i] {
						_ = p.sendExtra(s, prep)
						p.countRetry()
					}
				}
			case <-p.crashc:
				return InDoubt, ErrCrashed
			case <-ctx.Done():
				return p.abortTx(tx, txName, subs, v), ctx.Err()
			}
		}
	}

	if agent != "" {
		return p.delegate(ctx, st, tx, txName, agent, yes, v)
	}
	return p.decideCommit(ctx, st, tx, txName, yes, localVote, v)
}

// decideCommit takes the commit decision after unanimous yes votes
// and drives phase two.
func (p *Participant) decideCommit(ctx context.Context, st *txState, tx core.TxID, txName string, yes []string, localVote protocol.VoteValue, v core.Variant) (Outcome, error) {
	// A fully read-only transaction commits with nothing to log and
	// nothing to propagate (§4 Read-Only).
	if !(localVote == protocol.VoteReadOnly && len(yes) == 0) {
		if err := p.force(commitRecord(txName, p.name, yes, v)); err != nil {
			// The yes-voters sit prepared holding locks; tell them the
			// abort now rather than leaving them to recovery.
			return p.abortTx(tx, txName, yes, v), fmt.Errorf("live: force commit record: %w", err)
		}
	}
	return p.commitPhaseTwo(ctx, st, tx, txName, yes, v)
}

// commitRecord is a coordinator's forced commit record. When the
// variant acknowledges commits it names the yes-voters, whose acks a
// replay without End waits on again.
func commitRecord(txName, node string, yes []string, v core.Variant) wal.Record {
	rec := wal.Record{Tx: txName, Node: node, Kind: "Committed"}
	if expectsAckFor(v, true) && len(yes) > 0 {
		rec.Data = ackersData(yes)
	}
	return rec
}

// commitPhaseTwo publishes a logged commit decision, completes the
// local resources, and delivers the outcome to the yes-voters. The
// decided-table entry stays pinned while their acknowledgments are
// outstanding; End is written only once they are all in.
func (p *Participant) commitPhaseTwo(ctx context.Context, st *txState, tx core.TxID, txName string, yes []string, v core.Variant) (Outcome, error) {
	acks := expectsAckFor(v, true) && len(yes) > 0
	p.recordDecision(txName, true, acks)
	p.completeResources(tx, true)
	if p.met != nil {
		p.met.CostOutcome(txName, "committed", len(yes))
	}

	out := protocol.Message{Type: protocol.MsgCommit, Tx: txName}
	for _, s := range yes {
		_ = p.send(s, out)
	}
	if !acks {
		p.endCoord(txName, true)
		return Committed, nil
	}
	heur, err := p.collectAcks(ctx, st, txName, yes, out)
	if err == nil {
		p.endCoord(txName, true)
	}
	if derr := damageError(txName, heur); derr != nil {
		return Committed, derr
	}
	return Committed, err
}

// delegate sends the last agent its combined "prepare, you decide"
// message and awaits the decision, then finishes phase two with the
// other (already yes-voting) subordinates.
func (p *Participant) delegate(ctx context.Context, st *txState, tx core.TxID, txName, agent string, yes []string, v core.Variant) (Outcome, error) {
	dm := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: presumptionOf(v), Delegate: true}
	if err := p.send(agent, dm); err != nil {
		// Nothing was delegated; the decision is still ours.
		return p.abortTx(tx, txName, append(append([]string{}, yes...), agent), v), fmt.Errorf("live: delegate to %s: %w", agent, err)
	}

	alarm := p.newRetryAlarm(p.voteTimeout, txName, "")
	defer alarm.stop()
	for {
		select {
		case env := <-st.decision:
			if env.from != agent {
				continue
			}
			if env.msg.Type != protocol.MsgCommit {
				// The agent decided abort; it has already logged it.
				return p.abortTx(tx, txName, yes, v), nil
			}
			if err := p.force(commitRecord(txName, p.name, yes, v)); err != nil {
				// The global decision is commit regardless; record what
				// we can and surface the log failure. No End will follow,
				// so this node's part of the cost ledger closes here.
				if p.met != nil {
					p.met.CostNodeDone(txName, p.name)
				}
				return Committed, fmt.Errorf("live: force commit record after delegation: %w", err)
			}
			return p.commitPhaseTwo(ctx, st, tx, txName, yes, v)
		case <-alarm.C():
			if alarm.expired() {
				// The agent owns the decision and may have gone either
				// way: we are genuinely in doubt until recovery reaches it.
				if p.met != nil {
					p.met.InDoubtEntry(p.name)
				}
				return InDoubt, fmt.Errorf("live: last agent %s silent for %s: %w", agent, txName, ErrInDoubt)
			}
			_ = p.sendExtra(agent, dm)
			p.countRetry()
		case <-p.crashc:
			return InDoubt, ErrCrashed
		case <-ctx.Done():
			if p.met != nil {
				p.met.InDoubtEntry(p.name)
			}
			return InDoubt, fmt.Errorf("live: awaiting last agent %s for %s: %w (%w)", agent, txName, ErrInDoubt, ctx.Err())
		}
	}
}

// collectAcks waits for phase-two acknowledgments from targets,
// retransmitting the outcome message on the backoff schedule, and
// folds up any heuristic reports they carry. Subordinates that never
// ack are counted in doubt; resolving them falls to recovery, and the
// acks still owed pass to the pinned decided-table entry, which late
// ones release (awaitLateAcks).
func (p *Participant) collectAcks(ctx context.Context, st *txState, txName string, targets []string, outMsg protocol.Message) ([]protocol.HeuristicReport, error) {
	// Ack bookkeeping mirrors vote collection: one tree-sized bool
	// slice instead of two maps.
	acked := make([]bool, len(targets))
	ackedN := 0
	var heur []protocol.HeuristicReport

	giveUp := func() {
		missing := make([]string, 0, len(targets)-ackedN)
		for i, s := range targets {
			if !acked[i] {
				missing = append(missing, s)
			}
		}
		p.awaitLateAcks(st, txName, missing, true)
	}
	alarm := p.newRetryAlarm(p.ackTimeout, txName, "/acks")
	defer alarm.stop()
	for ackedN < len(targets) {
		select {
		case env := <-st.replies:
			i := indexOf(targets, env.from)
			if i < 0 || acked[i] || env.msg.Type != protocol.MsgAck {
				continue
			}
			acked[i] = true
			ackedN++
			heur = append(heur, env.msg.Heuristics...)
		case <-alarm.C():
			if alarm.expired() {
				missing := 0
				for i, s := range targets {
					if !acked[i] {
						missing++
						if p.met != nil {
							p.met.InDoubtEntry(s)
						}
					}
				}
				giveUp()
				return heur, fmt.Errorf("live: %d/%d acks outstanding for %s; delivery falls to recovery: %w", missing, len(targets), txName, ErrInDoubt)
			}
			for i, s := range targets {
				if !acked[i] {
					_ = p.sendExtra(s, outMsg)
					p.countRetry()
				}
			}
		case <-p.stopped:
			// Shutdown mid-collection (e.g. a 1PC background collector
			// when the participant stops): the outcome is decided and
			// durable; outstanding deliveries fall to recovery.
			giveUp()
			return heur, fmt.Errorf("live: participant stopped with acks outstanding for %s: %w", txName, ErrInDoubt)
		case <-p.crashc:
			return heur, ErrCrashed
		case <-ctx.Done():
			giveUp()
			return heur, ctx.Err()
		}
	}
	return heur, nil
}

// abortTx takes an abort decision on the coordinator's own initiative:
// log it per the variant's rules (PA aborts are presumed and need no
// force), release local resources, and tell every subordinate
// best-effort. Prepared subordinates that miss the message resolve
// through inquiry and presumption. Under a variant whose presumption
// is not abort, the decided-table entry stays pinned — and End
// unwritten — until every subordinate told has acknowledged.
func (p *Participant) abortTx(tx core.TxID, txName string, subs []string, v core.Variant) Outcome {
	p.logAbort(txName, v, subs)
	acks := expectsAckFor(v, false) && len(subs) > 0
	p.recordDecision(txName, false, acks)
	if acks {
		p.awaitLateAcks(nil, txName, append([]string(nil), subs...), true)
	}
	p.completeResources(tx, false)
	if p.met != nil {
		p.met.CostOutcome(txName, "aborted", -1)
	}
	ab := protocol.Message{Type: protocol.MsgAbort, Tx: txName}
	for _, s := range subs {
		_ = p.send(s, ab)
	}
	if !acks {
		p.endCoord(txName, true)
	}
	return Aborted
}

// logAbort writes the coordinator's abort record: non-forced under
// Presumed Abort (absence already means abort), under Paxos Commit
// (the acceptor quorum holds the durable outcome), and under 1PC
// (fully abort-presumptive), forced otherwise — exactly the variants
// whose aborts are acknowledged, so the forced record names subs, the
// subordinates the acks are owed by.
func (p *Participant) logAbort(txName string, v core.Variant, subs []string) {
	rec := wal.Record{Tx: txName, Node: p.name, Kind: "Aborted"}
	if !expectsAckFor(v, false) {
		_ = p.lazy(rec)
		return
	}
	if len(subs) > 0 {
		rec.Data = ackersData(subs)
	}
	_ = p.force(rec)
}

// damageError folds heuristic reports into an error if any report
// disagrees with the outcome.
func damageError(txName string, heur []protocol.HeuristicReport) error {
	for _, h := range heur {
		if h.Damage {
			return fmt.Errorf("live: %s reported heuristic damage for %s: %w", h.Node, txName, ErrHeuristicDamage)
		}
	}
	return nil
}

// indexOf finds name in peers (tree-sized, so a linear scan beats a
// map and allocates nothing).
func indexOf(peers []string, name string) int {
	for i, s := range peers {
		if s == name {
			return i
		}
	}
	return -1
}

// registerCoord installs the coordinator-side collection channels for
// one transaction. The reply channel holds one vote or ack per
// subordinate; a duplicate that finds it full is dropped, which the
// retransmission schedule already tolerates. The delegation-answer
// channel exists only on last-agent coordinators; everyone else drops
// stray outcome messages exactly as a full channel would have.
func (p *Participant) registerCoord(txName string, n int) *txState {
	sh := p.shardFor(txName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.stateLocked(txName)
	st.isCoord = true
	st.replies = make(chan envelope, max(n, 1))
	if p.lastAgent {
		st.decision = make(chan envelope, 2)
	}
	return st
}

// unregisterCoord tears the collection channels down once Commit
// returns; the outcome lives on in the decided map.
func (p *Participant) unregisterCoord(txName string) {
	sh := p.shardFor(txName)
	sh.mu.Lock()
	st, ok := sh.txs[txName]
	sh.mu.Unlock()
	if !ok || !st.isCoord {
		return
	}
	// Lock order everywhere in this package is st.mu before sh.mu
	// (finishLocked -> recordDecision); holding st.mu also pins the
	// acceptor-state check against a concurrently arriving accept.
	st.mu.Lock()
	defer st.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, decided := sh.decidedLocked(txName); !decided && len(st.paxAccepted) > 0 {
		// An undecided Paxos transaction with acceptor state must keep
		// it: this node promised its acceptances to recovery leaders,
		// and forgetting them while the process lives would let two
		// leaders learn different outcomes. Drop only the coordinator
		// role and its collection channels.
		st.isCoord = false
		st.replies, st.decision = nil, nil
		st.paxAccepts, st.paxPromise = nil, nil
		return
	}
	// A participant never subordinates a transaction it coordinates,
	// so the whole entry can go.
	delete(sh.txs, txName)
}
