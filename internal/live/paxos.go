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

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// paxosAcceptorSet picks the 2f+1 acceptor membership for a flat tree
// (mirroring the simulator): three nodes (f=1) whenever the tree has
// at least two subordinates, otherwise just the coordinator (f=0 — a
// two-node tree has no third node to colocate an acceptor on).
func paxosAcceptorSet(coord string, subs []string) []string {
	if len(subs) < 2 {
		return []string{coord}
	}
	return []string{coord, subs[0], subs[1]}
}

// paxosQuorum is f+1 of the 2f+1 acceptors — unless the harness
// injected a miscounted quorum to prove the chaos oracle convicts it.
func (p *Participant) paxosQuorum(acceptors int) int {
	if q := p.hooks.QuorumOverride; q > 0 {
		return q
	}
	return acceptors/2 + 1
}

// paxosAdoptLocked learns the transaction's acceptor and instance
// membership from any Paxos message carrying it (an acceptor may hear
// an accept before its own Prepare arrives). Caller holds st.mu.
func (p *Participant) paxosAdoptLocked(st *txState, meta protocol.PaxosMeta) {
	if st.paxMeta != nil || len(meta.Acceptors) == 0 || len(meta.Participants) == 0 {
		return
	}
	st.paxMeta = &protocol.PaxosMeta{
		Leader:       meta.Leader,
		Acceptors:    append([]string(nil), meta.Acceptors...),
		Participants: append([]string(nil), meta.Participants...),
	}
}

// decisionOf extracts a commit/abort decision from a message that can
// carry one (an outcome broadcast or a recovery answer).
func decisionOf(m protocol.Message) (commit, ok bool) {
	switch m.Type {
	case protocol.MsgCommit:
		return true, true
	case protocol.MsgAbort:
		return false, true
	case protocol.MsgOutcome:
		switch m.Outcome {
		case protocol.OutcomeCommit:
			return true, true
		case protocol.OutcomeAbort:
			return false, true
		}
	}
	return false, false
}

// paxosRecordData renders an acceptor record's payload: the full meta
// (membership plus accepted states) so a restart rebuilds acceptor
// state from the log alone.
func paxosRecordData(meta *protocol.PaxosMeta, ballot int, states []protocol.PaxosInstanceState) []byte {
	d := protocol.PaxosMeta{
		Ballot:       ballot,
		Acceptors:    meta.Acceptors,
		Participants: meta.Participants,
		States:       states,
	}
	return d.Encode()
}

// ---- Coordinator fast path ----

// runPaxosCommit is the coordinator's ballot-0 fast path: no pre-force
// (the acceptor quorum is the durable truth), Prepares announce the
// acceptor membership, and the coordinator's own instance value goes
// to the acceptors at ballot 0 alongside everyone else's.
func (p *Participant) runPaxosCommit(ctx context.Context, st *txState, tx core.TxID, txName string, subs []string) (Outcome, error) {
	acceptors := paxosAcceptorSet(p.name, subs)
	participants := append([]string{p.name}, subs...)
	meta := protocol.PaxosMeta{Leader: p.name, Acceptors: acceptors, Participants: participants}

	// Register the leader's collection channels and the membership
	// before any reply can arrive. The decision channel doubles as the
	// inlet for outcomes another leader (or a decided acceptor) sends us.
	sh := p.shardFor(txName)
	sh.mu.Lock()
	st.paxAccepts = make(chan envelope, 4*len(participants)+8)
	if st.decision == nil {
		st.decision = make(chan envelope, 4)
	}
	sh.mu.Unlock()
	st.mu.Lock()
	st.presume = protocol.PresumePaxos
	p.paxosAdoptLocked(st, meta)
	st.mu.Unlock()

	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: protocol.PresumePaxos, Payload: meta.Encode()}
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

	localVote := p.prepareLocal(tx)
	if localVote == protocol.VoteNo {
		return p.paxosCoordFinish(st, tx, txName, subs, false, true, true), nil
	}
	// Read-only folds to yes under Paxos: instances carry only Yes/No
	// and every participant sees phase two.

	// Ballot-0 accept of the coordinator's own instance, to every
	// acceptor (self-applied when the coordinator is itself one).
	am := meta
	am.Instance = p.name
	acc := protocol.Message{Type: protocol.MsgPaxosAccept, Tx: txName, Vote: protocol.VoteYes, Payload: am.Encode()}
	for _, a := range acceptors {
		if a == p.name {
			st.mu.Lock()
			p.paxosAcceptLocked(st, am, protocol.VoteYes)
			st.mu.Unlock()
			continue
		}
		// A lost accept falls to the recovery round; a crash ends the
		// fast path here, before any reply can be collected.
		if err := p.send(a, acc); err != nil && p.Crashed() {
			return InDoubt, ErrCrashed
		}
	}

	quorum := p.paxosQuorum(len(acceptors))
	selfAcceptor := indexOf(acceptors, p.name) >= 0
	acks := make(map[string]map[string]bool)
	noVote := make(map[string]bool)
	deadline := p.sched.NewTimer(p.voteTimeout)
	defer deadline.Stop()
fast:
	for {
		select {
		case env := <-st.paxAccepts:
			bm, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil || bm.Ballot != 0 {
				continue
			}
			for _, is := range bm.States {
				set := acks[is.Instance]
				if set == nil {
					set = make(map[string]bool)
					acks[is.Instance] = set
				}
				set[env.from] = true
				if is.Vote == protocol.VoteNo {
					noVote[is.Instance] = true
				}
			}
			full := true
			for _, q := range participants {
				if len(acks[q]) < quorum {
					full = false
					break
				}
			}
			if !full {
				continue
			}
			// The coordinator's own acceptor bundle must be durable
			// before the decision leaves: this node is part of the
			// quorum whose forced state IS the decision's durability.
			if selfAcceptor {
				st.mu.Lock()
				bundled := st.paxBundled
				st.mu.Unlock()
				if !bundled {
					continue
				}
			}
			commit := true
			for _, q := range participants {
				if noVote[q] {
					commit = false
				}
			}
			return p.paxosCoordFinish(st, tx, txName, subs, commit, true, true), nil
		case env := <-st.decision:
			// Another leader, or an acceptor that already knows the
			// outcome, resolved the transaction for us.
			if commit, ok := decisionOf(env.msg); ok {
				return p.paxosCoordFinish(st, tx, txName, subs, commit, true, false), nil
			}
		case <-deadline.C():
			break fast
		case <-p.crashc:
			return InDoubt, ErrCrashed
		case <-ctx.Done():
			// Accepts may exist: aborting unilaterally could split the
			// outcome, so the transaction is genuinely in doubt here.
			if p.met != nil {
				p.met.InDoubtEntry(p.name)
			}
			return InDoubt, fmt.Errorf("live: awaiting paxos quorum for %s: %w (%w)", txName, ErrInDoubt, ctx.Err())
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
func (p *Participant) paxosCoordFinish(st *txState, tx core.TxID, txName string, subs []string, commit, broadcast, firstClass bool) Outcome {
	rec := wal.Record{Tx: txName, Node: p.name, Kind: "Committed"}
	out, delivered, mt := Committed, len(subs), protocol.MsgCommit
	if !commit {
		rec.Kind, out, delivered, mt = "Aborted", Aborted, -1, protocol.MsgAbort
	}
	_ = p.lazy(rec)
	// The coordinator is always one of the transaction's acceptors:
	// its entry stays pinned for recovery leaders.
	p.recordDecision(txName, commit, true)
	p.completeResources(tx, commit)
	if p.met != nil {
		p.met.CostOutcome(txName, out.String(), delivered)
	}
	if broadcast {
		om := protocol.Message{Type: mt, Tx: txName}
		for _, s := range subs {
			if firstClass {
				_ = p.send(s, om)
			} else {
				_ = p.sendExtra(s, om)
			}
		}
	}
	if p.lazy(wal.Record{Tx: txName, Node: p.name, Kind: "End"}) == nil && p.met != nil {
		p.met.CostNodeDone(txName, p.name)
	}
	return out
}

// ---- Subordinate phase one ----

// handlePaxosPrepareLocked runs a subordinate's phase one under Paxos
// Commit: prepare, force the Prepared record with the announced
// membership in its payload (a restarted participant recovers from
// the acceptor quorum, not from the possibly-dead coordinator), then
// make the vote known to every acceptor — the ballot-0 accept of this
// participant's own instance replaces MsgVote. Caller holds st.mu.
func (p *Participant) handlePaxosPrepareLocked(st *txState, from string, m protocol.Message) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	p.paxosAdoptLocked(st, meta)
	if st.paxVoteSent || st.paxMeta == nil {
		return // duplicate Prepare, or membership missing: recovery retries
	}
	tx := core.ParseTxID(m.Tx)
	vote := p.prepareLocal(tx)
	if vote == protocol.VoteReadOnly {
		// Read-only folds to yes under Paxos: instances carry only
		// Yes/No and every participant sees phase two.
		vote = protocol.VoteYes
	}
	if vote == protocol.VoteYes {
		if err := p.force(wal.Record{Tx: m.Tx, Node: p.name, Kind: "Prepared", Data: m.Payload}); err != nil {
			vote = protocol.VoteNo
		}
	}
	if p.met != nil {
		p.met.CostSub(m.Tx, p.name, core.VariantPaxos.String(), false)
		p.met.CostMembership(m.Tx, len(meta.Participants)-1)
		if indexOf(meta.Acceptors, p.name) >= 0 {
			p.met.CostAcceptor(m.Tx, p.name)
		}
	}
	if vote == protocol.VoteYes {
		st.prepared = true
	}
	p.paxosSendAccept0Locked(st, vote)
	if vote == protocol.VoteNo {
		// A No voter may abort unilaterally: its instance value No is
		// on its way to the acceptors, and recovery defaults a free
		// instance to No — either way the transaction cannot commit.
		_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "Aborted"})
		p.completeResources(tx, false)
		p.finishLocked(st, false)
		_ = p.lazy(wal.Record{Tx: m.Tx, Node: p.name, Kind: "End"})
		if p.met != nil {
			p.met.CostOutcome(m.Tx, "aborted", -1)
			p.met.CostNodeDone(m.Tx, p.name)
		}
	}
}

// paxosSendAccept0Locked sends this participant's ballot-0 accept for
// its own instance to every acceptor, self-applying when this node is
// itself one. Caller holds st.mu.
func (p *Participant) paxosSendAccept0Locked(st *txState, vote protocol.VoteValue) {
	if st.paxVoteSent || st.paxMeta == nil {
		return
	}
	st.paxVoteSent = true
	am := *st.paxMeta
	am.Ballot = 0
	am.Instance = p.name
	msg := protocol.Message{Type: protocol.MsgPaxosAccept, Tx: st.id, Vote: vote, Payload: am.Encode()}
	for _, a := range am.Acceptors {
		if a == p.name {
			p.paxosAcceptLocked(st, am, vote)
			continue
		}
		_ = p.send(a, msg)
	}
}

// ---- Acceptor role ----

// handlePaxosAccept processes a ballot-b accept request at an
// acceptor. A decided transaction short-circuits with the known
// outcome — except a ballot-0 accept completing a committed
// transaction's still-pending bundle, which runs to completion so the
// acceptor's durable (and cost-audited) state finishes even when the
// decision raced ahead of the slowest accept.
func (p *Participant) handlePaxosAccept(from string, m protocol.Message) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	st, exists := sh.txs[m.Tx]
	if !known && !exists {
		st = sh.stateLocked(m.Tx)
		exists = true
	}
	sh.mu.Unlock()
	if known && !exists {
		// Decided and already retired from the table: answer without
		// resurrecting a blank entry — a lingering one would make a
		// duplicate outcome reply re-apply the whole transaction here
		// (double writes, a corrupted cost ledger).
		p.paxosReplyOutcome(meta.Leader, from, m.Tx, d.committed())
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// A subordinate entry kept for its pending bundle retires as soon
	// as this accept completes it.
	defer p.retireLocked(st)
	p.paxosAdoptLocked(st, meta)
	if known {
		committed := d.committed()
		pendingBundle := committed && meta.Ballot == 0 && !st.paxBundled && len(st.paxAccepted) > 0
		if !pendingBundle {
			p.paxosReplyOutcome(meta.Leader, from, m.Tx, committed)
			return
		}
	}
	pending := st.bundlePending()
	p.paxosAcceptLocked(st, meta, m.Vote)
	if pending && st.paxBundled && p.met != nil {
		// The subordinate's phase two closed without its bundle
		// (applyOutcome); now that it is forced and sent, so is the
		// acceptor's spend.
		p.met.CostNodeDone(m.Tx, p.name)
	}
}

// paxosAcceptLocked is the acceptor's accept rule (caller holds
// st.mu). Ballot-0 accepts accumulate in volatile state and become
// durable in ONE bundled forced record once every instance has
// reported; recovery-ballot accepts are forced and acknowledged
// individually.
func (p *Participant) paxosAcceptLocked(st *txState, meta protocol.PaxosMeta, vote protocol.VoteValue) {
	if st.paxMeta == nil || indexOf(st.paxMeta.Acceptors, p.name) < 0 {
		return // not an acceptor for this transaction
	}
	b := meta.Ballot
	if b < st.paxPromised || meta.Instance == "" {
		return // promised a higher ballot: refuse silently
	}
	if prev, ok := st.paxAccepted[meta.Instance]; ok && prev.Ballot > b {
		return
	}
	if st.paxAccepted == nil {
		st.paxAccepted = make(map[string]protocol.PaxosInstanceState)
	}
	st.paxAccepted[meta.Instance] = protocol.PaxosInstanceState{Instance: meta.Instance, Ballot: b, Vote: vote}
	if b == 0 {
		if st.paxBundled || len(st.paxAccepted) < len(st.paxMeta.Participants) {
			return // bundle already out, or still incomplete
		}
		insts := paxosInstList(st)
		rec := wal.Record{Tx: st.id, Node: p.name, Kind: "PaxAccept", Data: paxosRecordData(st.paxMeta, 0, insts)}
		// The acceptance MUST be durable before it is acknowledged: an
		// acceptor that forgets what it acked lets two recovery leaders
		// learn different outcomes. Hooks.SkipAcceptorForce injects
		// exactly that bug for the chaos oracle to convict.
		if p.hooks.SkipAcceptorForce {
			_ = p.lazy(rec)
		} else if err := p.force(rec); err != nil {
			return
		}
		st.paxBundled = true
		p.paxosSendAcceptedLocked(st, meta.Leader, 0, insts, false)
		return
	}
	// Recovery ballot: accept individually, durably, ack the proposer.
	st.paxPromised = b
	one := []protocol.PaxosInstanceState{st.paxAccepted[meta.Instance]}
	rec := wal.Record{Tx: st.id, Node: p.name, Kind: "PaxAccept", Data: paxosRecordData(st.paxMeta, b, one)}
	if p.hooks.SkipAcceptorForce {
		_ = p.lazy(rec)
	} else if err := p.force(rec); err != nil {
		return
	}
	p.paxosSendAcceptedLocked(st, meta.Leader, b, one, true)
}

// paxosInstList snapshots the acceptor's accepted state in instance
// order (deterministic for records and promises). Caller holds st.mu.
func paxosInstList(st *txState) []protocol.PaxosInstanceState {
	out := make([]protocol.PaxosInstanceState, 0, len(st.paxAccepted))
	for _, q := range st.paxMeta.Participants {
		if is, ok := st.paxAccepted[q]; ok {
			out = append(out, is)
		}
	}
	return out
}

// paxosSendAcceptedLocked reports durable acceptance(s) to the
// ballot's leader, feeding the local collection channel when the
// leader is this node. Recovery-ballot acks are extra flows; the
// ballot-0 bundle is a first-class flow of the fast path.
func (p *Participant) paxosSendAcceptedLocked(st *txState, leader string, ballot int, insts []protocol.PaxosInstanceState, extra bool) {
	am := *st.paxMeta
	am.Ballot = ballot
	am.Leader = leader
	am.States = insts
	wire := protocol.VoteYes
	for _, is := range insts {
		if is.Vote == protocol.VoteNo {
			wire = protocol.VoteNo
		}
	}
	msg := protocol.Message{Type: protocol.MsgPaxosAccepted, Tx: st.id, Vote: wire, Payload: am.Encode()}
	if leader == p.name {
		p.feedPaxos(st.id, envelope{from: p.name, msg: msg}, false)
		return
	}
	if extra {
		_ = p.sendExtra(leader, msg)
	} else {
		_ = p.send(leader, msg)
	}
}

// handlePaxosQuery processes a recovery leader's phase-1a request at
// an acceptor. A decided transaction short-circuits with the outcome —
// faster than a round, and safe because decisions are quorum-backed.
func (p *Participant) handlePaxosQuery(from string, m protocol.Message) {
	meta, err := protocol.DecodePaxosMeta(m.Payload)
	if err != nil {
		return
	}
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	d, known := sh.decidedLocked(m.Tx)
	if known {
		// Answer before touching the table: creating a blank entry
		// for a retired transaction invites duplicate re-application.
		sh.mu.Unlock()
		p.paxosReplyOutcome(meta.Leader, from, m.Tx, d.committed())
		return
	}
	st := sh.stateLocked(m.Tx)
	sh.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	p.paxosAdoptLocked(st, meta)
	p.paxosPromiseLocked(st, meta)
}

// paxosPromiseLocked is the acceptor's promise rule (caller holds
// st.mu): refuse stale ballots, force the promise with the durable
// accepted state, report that state to the leader. Volatile
// (never-acknowledged) ballot-0 accepts are dropped — equivalent to
// the accept having been lost in flight.
func (p *Participant) paxosPromiseLocked(st *txState, meta protocol.PaxosMeta) {
	if st.paxMeta == nil || indexOf(st.paxMeta.Acceptors, p.name) < 0 {
		return
	}
	b := meta.Ballot
	if b <= st.paxPromised {
		return // stale leader: it will retry with a higher ballot
	}
	st.paxPromised = b
	if !st.paxBundled {
		for inst, is := range st.paxAccepted {
			if is.Ballot == 0 {
				delete(st.paxAccepted, inst)
			}
		}
	}
	insts := paxosInstList(st)
	rec := wal.Record{Tx: st.id, Node: p.name, Kind: "PaxPromise", Data: paxosRecordData(st.paxMeta, b, insts)}
	if err := p.force(rec); err != nil {
		return
	}
	am := *st.paxMeta
	am.Ballot = b
	am.Leader = meta.Leader
	am.States = insts
	msg := protocol.Message{Type: protocol.MsgPaxosPromise, Tx: st.id, Payload: am.Encode()}
	if meta.Leader == p.name {
		p.feedPaxos(st.id, envelope{from: p.name, msg: msg}, true)
		return
	}
	_ = p.send(meta.Leader, msg) // sendFlow marks promises as extra flows
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

// feedPaxos hands a Paxos reply to the transaction's collecting
// leader, if one is waiting here; stray replies are dropped exactly
// as a full channel would drop them.
func (p *Participant) feedPaxos(tx string, env envelope, promise bool) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	st, ok := sh.txs[tx]
	var ch chan envelope
	if ok {
		if promise {
			ch = st.paxPromise
		} else {
			ch = st.paxAccepts
		}
	}
	sh.mu.Unlock()
	if ch != nil {
		select {
		case ch <- env:
		default:
		}
	}
}

// ---- Recovery leader ----

// paxosLeadRounds leads recovery rounds for one transaction until a
// decision is reached: PaxosQuery at a fresh, globally unique ballot
// (attempt*N + own index + 1), a promise quorum, the Gray-Lamport
// value-choice rule (re-propose the maximum-ballot accepted value; a
// free instance defaults to No, except this node's own, whose value
// it knows), then ballot-b accepts until every instance has an f+1
// quorum. A reached decision is broadcast to every other participant
// before returning; applying it locally is the caller's job.
func (p *Participant) paxosLeadRounds(ctx context.Context, st *txState, txName string) (bool, error) {
	st.mu.Lock()
	meta := st.paxMeta
	st.mu.Unlock()
	if meta == nil {
		return false, fmt.Errorf("live: no paxos membership recorded for %s", txName)
	}
	idx := indexOf(meta.Participants, p.name)
	if idx < 0 {
		return false, fmt.Errorf("live: %s is not a participant of %s", p.name, txName)
	}
	sh := p.shardFor(txName)
	sh.mu.Lock()
	if st.paxAccepts == nil {
		st.paxAccepts = make(chan envelope, 4*len(meta.Participants)*len(meta.Acceptors)+8)
	}
	if st.paxPromise == nil {
		st.paxPromise = make(chan envelope, 2*len(meta.Acceptors)+4)
	}
	decisionCh := st.decision
	sh.mu.Unlock()

	quorum := p.paxosQuorum(len(meta.Acceptors))
	// The alarm's retransmission points end stalled rounds; its
	// deadline bounds the whole recovery.
	alarm := p.newRetryAlarm(p.ackTimeout, txName, "/paxos")
	defer alarm.stop()

	for attempt := 1; attempt <= 8; attempt++ {
		ballot := attempt*len(meta.Participants) + idx + 1
		qm := *meta
		qm.Ballot = ballot
		qm.Leader = p.name
		query := protocol.Message{Type: protocol.MsgPaxosQuery, Tx: txName, Payload: qm.Encode()}
		for _, a := range meta.Acceptors {
			if a == p.name {
				st.mu.Lock()
				p.paxosPromiseLocked(st, qm)
				st.mu.Unlock()
				continue
			}
			_ = p.send(a, query) // sendFlow marks queries as extra flows
		}
		commit, decided, err := p.paxosCollectRound(ctx, st, txName, meta, ballot, quorum, decisionCh, &alarm)
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

// paxosCollectRound drives one ballot: collect promises to a quorum,
// propose per the value-choice rule, then collect per-instance accept
// acknowledgments until every instance has a quorum. decided=false
// with nil error means the round stalled and a higher ballot should
// retry.
func (p *Participant) paxosCollectRound(ctx context.Context, st *txState, txName string, meta *protocol.PaxosMeta, ballot, quorum int, decisionCh chan envelope, alarm *retryAlarm) (bool, bool, error) {
	promised := make(map[string]bool)
	var states []protocol.PaxosInstanceState
	proposed := false
	acks := make(map[string]map[string]bool)
	proposal := make(map[string]protocol.VoteValue)
	for {
		select {
		case env := <-st.paxPromise:
			pm, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil || pm.Ballot != ballot || promised[env.from] {
				continue
			}
			promised[env.from] = true
			states = append(states, pm.States...)
			if proposed || len(promised) < quorum {
				continue
			}
			proposed = true
			for _, q := range meta.Participants {
				val, found, best := protocol.VoteNo, false, -1
				for _, is := range states {
					if is.Instance != q || is.Ballot <= best {
						continue
					}
					best, found, val = is.Ballot, true, is.Vote
				}
				if !found && q == p.name {
					// Our own instance is free: we lead rounds only
					// prepared (or as a yes-voting coordinator), so the
					// value we may propose freely is Yes.
					val = protocol.VoteYes
				}
				proposal[q] = val
			}
			for _, q := range meta.Participants {
				am := *meta
				am.Ballot = ballot
				am.Leader = p.name
				am.Instance = q
				msg := protocol.Message{Type: protocol.MsgPaxosAccept, Tx: txName, Vote: proposal[q], Payload: am.Encode()}
				for _, a := range meta.Acceptors {
					if a == p.name {
						st.mu.Lock()
						p.paxosAcceptLocked(st, am, proposal[q])
						st.mu.Unlock()
						continue
					}
					_ = p.sendExtra(a, msg)
				}
			}
		case env := <-st.paxAccepts:
			am, err := protocol.DecodePaxosMeta(env.msg.Payload)
			if err != nil || am.Ballot != ballot {
				continue
			}
			for _, is := range am.States {
				set := acks[is.Instance]
				if set == nil {
					set = make(map[string]bool)
					acks[is.Instance] = set
				}
				set[env.from] = true
			}
			if !proposed {
				continue
			}
			full := true
			for _, q := range meta.Participants {
				if len(acks[q]) < quorum {
					full = false
					break
				}
			}
			if !full {
				continue
			}
			commit := true
			for _, q := range meta.Participants {
				if proposal[q] == protocol.VoteNo {
					commit = false
				}
			}
			// Resolve the others too — the whole point of the acceptor
			// quorum is that the outcome depends on no single node.
			mt := protocol.MsgAbort
			if commit {
				mt = protocol.MsgCommit
			}
			for _, q := range meta.Participants {
				if q != p.name {
					_ = p.sendExtra(q, protocol.Message{Type: mt, Tx: txName})
				}
			}
			return commit, true, nil
		case env := <-decisionCh:
			if commit, ok := decisionOf(env.msg); ok {
				return commit, true, nil
			}
		case <-st.resolved:
			st.mu.Lock()
			commit := st.committed
			st.mu.Unlock()
			return commit, true, nil
		case <-alarm.C():
			if alarm.expired() {
				return false, false, fmt.Errorf("live: paxos recovery deadline for %s: %w", txName, ErrInDoubt)
			}
			return false, false, nil
		case <-p.crashc:
			return false, false, ErrCrashed
		case <-ctx.Done():
			return false, false, ctx.Err()
		}
	}
}

// resolvePaxosInDoubt resolves one in-doubt Paxos transaction from
// the acceptor quorum recorded in its Prepared record — the
// coordinator's fate is irrelevant, which is the non-blocking payoff
// (AC4 without the classic blocking window).
func (p *Participant) resolvePaxosInDoubt(ctx context.Context, st *txState, txName string) error {
	select {
	case <-st.resolved:
		return nil
	default:
	}
	commit, err := p.paxosLeadRounds(ctx, st, txName)
	if err != nil {
		return err
	}
	mt := protocol.MsgAbort
	if commit {
		mt = protocol.MsgCommit
	}
	p.applyOutcome(p.name, protocol.Message{Type: mt, Tx: txName}, commit)
	return nil
}
