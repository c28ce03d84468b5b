package live

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/protocol"
)

// replayLog rebuilds this participant's durable commit state at Start
// from what its log proves (protocol.ReplayLog), or returns the error
// that kept it from reading the log.
func (p *Participant) replayLog() error {
	recs, err := p.log.Records()
	if err != nil {
		return fmt.Errorf("live: reading log: %w", err)
	}
	txs := protocol.ReplayLog(recs, p.name)
	for i := range txs {
		p.resume(&txs[i])
	}
	return nil
}

// resume reinstates one transaction as its log's restart rule says
// (protocol.TxLog.Comeback). An outcome repopulates the decided table,
// so post-restart inquiries are answered from real state rather than
// presumption; it is pinned again while the members its decision
// record names owe acks, or while this node holds acceptor records for
// it, and ages from the restart otherwise. It runs before the receive
// loop starts, so no consumer holds the entries it touches, and again
// from RecoverInDoubt, on the consumer of a transaction in doubt.
func (p *Participant) resume(l *protocol.TxLog) {
	tx := l.Tx
	switch b := l.Comeback(p.variant); b.Back {
	case protocol.BackForgotten, protocol.BackRedrive:
		if !b.Sub.Done {
			return // the log proves no outcome
		}
		// A subordinate's entry keeps its presumption, so a duplicate
		// outcome after the restart is re-acked as the live entry would
		// have been.
		d := coordDecision(b.Sub.Committed)
		if b.Sub.Prepared {
			d = subDecision(b.Sub.Committed, b.Sub.Presume)
		}
		owed := b.Coord.Subs
		p.publishDecision(tx, d, len(owed) > 0 || l.Acceptor)
		if len(owed) == 0 {
			return
		}
		// Re-announce the decision, best-effort, to the members its
		// record names; their acks release the pin. A 1PC decision
		// record is the only stable copy of its voters' fates AND their
		// redo, so the redo rides along and even amnesiac voters
		// complete.
		p.awaitAcks(nil, tx, append([]string(nil), owed...), b.Redo, false, false)
		for _, s := range owed {
			_ = p.sendExtra(s, outcomeMsg(tx, b.Sub.Committed, b.Redo, s))
		}
	case protocol.BackDelegated:
		// The last agent owns the outcome: come back in doubt and ask it.
		st := p.registerCoord(tx)
		st.coord = b.Coord
		p.resolveLater(st, tx)
	case protocol.BackAbort:
		// The coordinator crashed mid-collection, so no subordinate can
		// have received a commit: abort now and tell the membership.
		p.abort(tx, &b.Coord, true)
	case protocol.BackInDoubt, protocol.BackPaxos:
		// Prepared, never decided: in doubt until RecoverInDoubt (or a
		// retransmitted outcome) settles it, and remembered until then.
		// An undecided Paxos acceptor that never prepared here is
		// remembered too, with the membership and acceptor state its
		// records hold and its own instance's value (TxLog.Restart): the
		// acceptor set is this node's recovery coordinator.
		st := p.liveState(tx)
		st.sub = b.Sub
		if b.Back == protocol.BackPaxos {
			l.Restart(&p.paxos(st).PaxosTx)
		}
	}
}

// RecoverInDoubt drives recovery for every transaction this
// participant prepared but never resolved (InDoubtTxs): inquiries to
// the coordinator, retransmitted on the retry policy's backoff, until
// an answer lands or the ack-timeout deadline passes. It returns the
// in-doubt transaction ids it found; the error (wrapping ErrInDoubt) reports any that remain unresolved —
// under the baseline protocol a forgetful coordinator answers Unknown
// and the transaction stays blocked, exactly the pathology the
// presumption variants exist to remove.
//
// ctx bounds the whole recovery pass.
func (p *Participant) RecoverInDoubt(ctx context.Context, coordinator string) ([]string, error) {
	inDoubt, logs, err := p.scanInDoubt()
	if err != nil {
		return nil, err
	}
	var unresolved []string
	for _, txName := range inDoubt {
		l := logs[txName]
		if l != nil && l.Prepared.Agent != "" {
			continue // a delegating coordinator asks its last agent itself
		}
		if p.met != nil {
			p.met.InDoubtEntry(p.name)
		}
		st := p.liveState(txName)
		if st == nil {
			continue // resolved (and retired) since the log scan
		}
		// Recovery runs as the transaction's consumer, so the answer it
		// waits for is applied in arrival order like any other input.
		var rerr error
		p.call(st, func() {
			if st.sub.Done {
				return
			}
			// Reinstate the table entry: a restarted participant has an
			// empty table, and applyOutcome needs the prepared flag and
			// presumption to log the answer correctly. A voter missing
			// from the log is one held prepared in memory.
			if !st.sub.Prepared && l != nil {
				p.resume(l)
			}
			if st.sub.Presume == protocol.VariantPaxos {
				rerr = p.resolvePaxosInDoubt(ctx, st)
			} else {
				rerr = p.resolveInDoubt(ctx, st, coordinator, txName)
			}
		})
		if err := rerr; err != nil {
			unresolved = append(unresolved, txName)
			if ctx.Err() != nil {
				return inDoubt, fmt.Errorf("live: recovery interrupted with %d of %d unresolved: %w (%w)", len(unresolved), len(inDoubt), ErrInDoubt, ctx.Err())
			}
		}
	}
	if len(unresolved) > 0 {
		return inDoubt, fmt.Errorf("live: %d of %d transactions still unresolved after inquiry (%v): %w", len(unresolved), len(inDoubt), unresolved, ErrInDoubt)
	}
	return inDoubt, nil
}

// scanInDoubt returns the transactions this participant prepared but
// never saw decided, with what the log proves of each it holds: the
// log's in-doubt set (protocol.TxLog.InDoubt), then the voters held
// prepared only in memory — a logless vote forces no Prepared record,
// so the log cannot see them, but they are exactly as blocked.
func (p *Participant) scanInDoubt() (inDoubt []string, logs map[string]*protocol.TxLog, err error) {
	recs, err := p.log.Records()
	if err != nil {
		return nil, nil, fmt.Errorf("live: reading log: %w", err)
	}
	logs = make(map[string]*protocol.TxLog)
	txs := protocol.ReplayLog(recs, p.name)
	for i := range txs {
		if l := &txs[i]; l.InDoubt() {
			inDoubt = append(inDoubt, l.Tx)
			logs[l.Tx] = l
		}
	}
	for _, tx := range p.preparedInMemory() {
		if logs[tx] == nil {
			inDoubt = append(inDoubt, tx)
		}
	}
	return inDoubt, logs, nil
}

// preparedInMemory lists, sorted, the transactions this participant
// holds prepared in its table as a subordinate with no decision. Each
// entry is asked on its consumer.
func (p *Participant) preparedInMemory() []string {
	var sts []*txState
	p.forEachState(func(_ string, st *txState) {
		if !st.isCoord {
			sts = append(sts, st)
		}
	})
	var out []string
	for _, st := range sts {
		p.call(st, func() {
			if st.sub.Prepared && !st.sub.Done {
				out = append(out, st.id)
			}
		})
	}
	sort.Strings(out)
	return out
}

// InDoubtTxs returns the transactions this participant prepared and
// has seen no decision for, in its durable log or (for logless voters)
// in memory only — the set RecoverInDoubt would drive. Chaos harnesses
// read it to build the oracle's final state.
func (p *Participant) InDoubtTxs() ([]string, error) {
	inDoubt, _, err := p.scanInDoubt()
	return inDoubt, err
}

// resolveInDoubt drives inquiries for one transaction, as st's
// consumer, until the answer is applied or the deadline passes.
func (p *Participant) resolveInDoubt(ctx context.Context, st *txState, coordinator, txName string) error {
	inq := protocol.Message{Type: protocol.MsgInquire, Tx: txName, Presume: st.sub.Presume}
	if err := p.send(coordinator, inq); err != nil {
		return fmt.Errorf("live: inquiry to %s: %w (%v)", coordinator, ErrInDoubt, err)
	}
	alarm := p.newRetryAlarm(p.ackTimeout, txName, "/inquire")
	defer alarm.stop()
	for {
		switch _, w := p.next(ctx, st, alarm.C()); w {
		case resolved:
			return nil
		case rang:
			if alarm.expired() {
				return fmt.Errorf("live: %s unresolved: %w", txName, ErrInDoubt)
			}
			_ = p.send(coordinator, inq)
			p.countRetry()
		case crashed, stopping, cancelled:
			return w.err(ctx)
		}
	}
}
