package live

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/wal"
)

// replayLog rebuilds this participant's durable commit state at Start.
// Decided transactions (a Committed or Aborted record by this node)
// repopulate the decided table so post-restart inquiries are answered
// from real state rather than presumption. A coordinator's decision
// with no End record is pinned again — its acknowledgments were never
// all in — and so is any decision this node holds acceptor records
// for; the rest age from the restart on. A prepared transaction with no
// decision is reinstated in doubt, so the table (and the log
// checkpoint) remember it until RecoverInDoubt resolves it. A
// PN Pending / PC Collecting record with no decision after it means
// the coordinator crashed mid-collection: no subordinate can have
// received a commit, so the recovered coordinator decides abort now
// and tells the recorded membership (abortForgotten). A delegation
// record with no decision after it means the last agent owns the
// outcome: the coordinator comes back in doubt and asks it
// (resolveLater).
func (p *Participant) replayLog() {
	recs, err := p.log.Records()
	if err != nil || len(recs) == 0 {
		return
	}
	type coordState struct {
		subs      []string
		pre       string // the pre-prepare record's kind
		decided   bool
		committed bool
		ended     bool     // an End record follows the decision
		acceptor  bool     // this node logged Paxos acceptor state
		owed      []string // the subordinates the decision record says owe acks
		onePhase  []byte   // a 1PC decision record's opc1 payload
		sub       bool     // this node prepared it as a subordinate
		prepared  []byte   // the Prepared record's payload
		presume   protocol.Variant
		agent     string   // the last agent a delegation record names
		yes       []string // the yes-voters it names
	}
	states := make(map[string]*coordState)
	var order []string
	for _, r := range recs {
		if r.Node != p.name {
			continue
		}
		st, ok := states[r.Tx]
		if !ok {
			st = &coordState{}
			states[r.Tx] = st
			order = append(order, r.Tx)
		}
		switch r.Kind {
		case "Pending", "Collecting":
			st.pre = r.Kind
			if len(r.Data) > 0 {
				st.subs = strings.Split(string(r.Data), ",")
			}
		case "Prepared":
			if v, agent, yes, ok := decodeDelegation(r.Data); ok {
				st.presume, st.agent, st.yes = v, agent, yes
				continue
			}
			st.sub = true
			st.prepared = r.Data
			st.presume, _ = presumeFromData(r.Data)
		case "Committed":
			st.decided, st.committed = true, true
			if protocol.IsOnePhasePayload(r.Data) {
				st.onePhase = r.Data
				if meta, err := protocol.DecodeOnePhaseMeta(r.Data); err == nil {
					st.owed = meta.Subs
				}
			} else if len(r.Data) > 0 {
				st.owed = strings.Split(string(r.Data), ",")
			}
		case "Aborted":
			st.decided, st.committed = true, false
			if len(r.Data) > 0 {
				st.owed = strings.Split(string(r.Data), ",")
			}
		case "End":
			st.ended = true
		case "PaxAccept", "PaxPromise":
			st.acceptor = true
		}
	}
	for _, tx := range order {
		st := states[tx]
		switch {
		case st.decided && st.sub:
			// Keep the presumption, so a duplicate outcome after the
			// restart is re-acked as the live entry would have been.
			p.publishDecision(tx, subDecision(st.committed, st.presume), st.acceptor)
		case st.decided:
			// A decision without End still waits on the acks its record
			// names; re-announce it to them best-effort. A 1PC decision
			// record is the only stable copy of its voters' fates AND
			// their redo payloads — a crash between the force and the
			// acks leaves voters that may hold nothing durable — so the
			// redo rides along and even amnesiac voters complete;
			// survivors treat it as a duplicate. The acks release the
			// pin. A decision that owes no acks ages: nobody can ask.
			awaiting := !st.ended && len(st.owed) > 0
			p.recordDecision(tx, st.committed, awaiting || st.acceptor)
			if awaiting {
				p.awaitLateAcks(nil, tx, append([]string(nil), st.owed...), false)
				p.setPinRedo(tx, st.onePhase)
				for _, s := range st.owed {
					_ = p.sendExtra(s, outcomeMsg(tx, st.committed, st.onePhase, s))
				}
			}
		case st.agent != "" && !st.ended:
			p.resolveLater(p.registerCoord(tx, len(st.yes), true), tx, &delegation{tx: protocol.ParseTxID(tx),
				agent: st.agent, yes: st.yes, v: st.presume, rd: protocol.Round{Logged: true, Voted: true}})
		case st.pre != "":
			v, _ := protocol.VariantByPrePrepare(st.pre)
			p.abortForgotten(tx, v, protocol.Round{Logged: true}, st.subs)
		case st.sub:
			// Prepared, never decided: in doubt until RecoverInDoubt
			// (or a retransmitted outcome) settles it.
			ps := p.state(tx)
			ps.mu.Lock()
			ps.prepared = true
			ps.presume = st.presume
			if st.presume == protocol.VariantPaxos {
				if meta, err := protocol.DecodePaxosMeta(st.prepared); err == nil {
					p.paxosLocked(ps).Adopt(meta.Acceptors, meta.Participants)
				}
			}
			ps.mu.Unlock()
		}
	}
	decidedTxs := make(map[string]bool)
	for tx, st := range states {
		if st.decided {
			decidedTxs[tx] = true
		}
	}
	p.restorePaxosAcceptors(recs, decidedTxs)
}

// restorePaxosAcceptors folds durable PaxAccept/PaxPromise records
// back into live acceptor state for transactions still undecided after
// a restart: an acceptor's promises must survive the crash, or two
// recovery leaders could learn different outcomes from it.
func (p *Participant) restorePaxosAcceptors(recs []wal.Record, decided map[string]bool) {
	for _, r := range recs {
		if r.Node != p.name || (r.Kind != "PaxAccept" && r.Kind != "PaxPromise") {
			continue
		}
		if decided[r.Tx] {
			continue
		}
		meta, err := protocol.DecodePaxosMeta(r.Data)
		if err != nil {
			continue
		}
		st := p.state(r.Tx)
		st.mu.Lock()
		ps := p.paxosLocked(st)
		ps.Adopt(meta.Acceptors, meta.Participants)
		ps.Restore(r.Kind == "PaxAccept", meta.Ballot, meta.States)
		st.mu.Unlock()
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
	inDoubt, announced, err := p.scanInDoubt()
	if err != nil {
		return nil, err
	}
	var unresolved []string
	for _, txName := range inDoubt {
		if _, _, _, ok := decodeDelegation(announced[txName]); ok {
			continue // a delegating coordinator asks its last agent itself
		}
		if p.met != nil {
			p.met.InDoubtEntry(p.name)
		}
		// Reinstate the table entry: a restarted participant has an
		// empty table, and applyOutcome needs the prepared flag and
		// presumption to log the answer correctly. The presumption the
		// coordinator announced on the original Prepare rides in the
		// Prepared record's payload; a record without one (pre-payload
		// logs) falls back to no-presumption, whose force/ack rules are
		// safe under every variant.
		st, _, decided := p.liveState(txName)
		if decided {
			continue // resolved (and retired) since the log scan
		}
		st.mu.Lock()
		if !st.done && !st.prepared {
			st.prepared = true
			st.presume, _ = presumeFromData(announced[txName])
		}
		paxos := st.presume == protocol.VariantPaxos
		if paxos {
			// The Prepared record's payload is the transaction's Paxos
			// membership — the acceptor set is this node's recovery
			// coordinator, not whoever crashed.
			if meta, derr := protocol.DecodePaxosMeta(announced[txName]); derr == nil {
				p.paxosLocked(st).Adopt(meta.Acceptors, meta.Participants)
			}
		}
		st.mu.Unlock()
		var rerr error
		if paxos {
			rerr = p.resolvePaxosInDoubt(ctx, st, txName)
		} else {
			rerr = p.resolveInDoubt(ctx, st, coordinator, txName)
		}
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
// never saw decided, with the presumption payload each Prepared record
// announced: the durable log's prepared-undecided set, then the voters
// held prepared only in memory — a logless vote forces no Prepared
// record, so the log cannot see them, but they are exactly as blocked.
func (p *Participant) scanInDoubt() (inDoubt []string, announced map[string][]byte, err error) {
	recs, err := p.log.Records()
	if err != nil {
		return nil, nil, fmt.Errorf("live: reading log: %w", err)
	}
	prepared := make(map[string]bool)
	announced = make(map[string][]byte) // tx -> Prepared record payload
	var order []string
	for _, r := range recs {
		if r.Node != p.name {
			continue
		}
		switch r.Kind {
		case "Prepared":
			if !prepared[r.Tx] {
				prepared[r.Tx] = true
				order = append(order, r.Tx)
			}
			announced[r.Tx] = r.Data
		case "Committed", "Aborted", "End":
			if prepared[r.Tx] {
				prepared[r.Tx] = false
			}
		}
	}
	for _, tx := range order {
		if prepared[tx] {
			inDoubt = append(inDoubt, tx)
		}
	}
	for _, tx := range p.preparedInMemory() {
		if !prepared[tx] {
			inDoubt = append(inDoubt, tx)
		}
	}
	return inDoubt, announced, nil
}

// preparedInMemory lists, sorted, the transactions this participant
// holds prepared in its table as a subordinate with no decision.
func (p *Participant) preparedInMemory() []string {
	var sts []*txState
	p.forEachState(func(_ string, st *txState) {
		if !st.isCoord {
			sts = append(sts, st)
		}
	})
	var out []string
	for _, st := range sts {
		st.mu.Lock()
		if st.prepared && !st.done {
			out = append(out, st.id)
		}
		st.mu.Unlock()
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

// resolveInDoubt drives inquiries for one transaction until its state
// st resolves or the deadline passes. The answer retires st from the
// table; waiting on st itself, not a fresh lookup, is what sees it.
func (p *Participant) resolveInDoubt(ctx context.Context, st *txState, coordinator, txName string) error {
	st.mu.Lock()
	inq := protocol.Message{Type: protocol.MsgInquire, Tx: txName, Presume: st.presume}
	st.mu.Unlock()
	if err := p.send(coordinator, inq); err != nil {
		return fmt.Errorf("live: inquiry to %s: %w (%v)", coordinator, ErrInDoubt, err)
	}
	alarm := p.newRetryAlarm(p.ackTimeout, txName, "/inquire")
	defer alarm.stop()
	for {
		select {
		case <-st.resolved:
			return nil
		case <-alarm.C():
			if alarm.expired() {
				return fmt.Errorf("live: %s unresolved: %w", txName, ErrInDoubt)
			}
			_ = p.send(coordinator, inq)
			p.countRetry()
		case <-p.crashc:
			return ErrCrashed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
