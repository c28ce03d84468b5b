package live

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Commit runs this participant as coordinator of one transaction with
// the named subordinates, under the participant's configured variant.
// Many Commit calls may run concurrently on one participant; each
// transaction's state lives in its own table entry.
//
// A Committed return means the decision is taken and durable and the
// outcome is on its way; when Commit returns is the variant's rule
// (protocol.Decision.Early). Under Basic 2PC, PA and 1PC it returns at
// the decision: the commit acks only let this node forget it, so a
// background collector gathers them, and a subordinate may not have
// applied the commit yet. A transactional read of its writes waits on
// the locks the subordinate holds until it does; a lock-free peek
// (kvstore.ReadCommitted) may lag until its ack is in
// (PinnedDecisions drops to 0). Under PN Commit returns once every ack
// is in, since they carry heuristic reports it returns as
// ErrHeuristicDamage; PC commits are not acked, and Paxos Commit
// returns once an acceptor quorum has learned the decision. Aborts
// return at the decision under every variant.
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
// serving daemon uses this to run all six variants over one
// endpoint. A return means what it means for Commit under v.
func (p *Participant) CommitVariant(ctx context.Context, txName string, subs []string, v protocol.Variant) (Outcome, error) {
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

func (p *Participant) runCommit(ctx context.Context, txName string, subs []string, v protocol.Variant) (Outcome, error) {
	tx := protocol.ParseTxID(txName)
	st := p.registerCoord(txName)
	defer func() {
		// A background ack collector (commitPhaseTwo) or last-agent
		// resolver (delegate) outlives this call as the consumer and
		// unregisters when it is done.
		if !st.detached {
			p.unregisterCoord(st)
		}
	}()
	if p.met != nil {
		p.met.CostBegin(txName, p.name, v.String(), len(subs))
	}

	// Paxos Commit replaces both phases: votes are ballot-0 accepts
	// replicated across the acceptor set, and the decision needs only
	// an acceptor quorum, never this node's log.
	if v == protocol.VariantPaxos {
		return p.runPaxosCommit(ctx, st, tx, txName, subs)
	}

	// Last Agent (§4): hold the final subordinate out of phase one and
	// delegate the decision to it once everyone else has voted yes. A
	// logless vote's durability is the coordinator's own decision
	// record, so there is nothing to delegate.
	agent := ""
	others := subs
	if p.lastAgent && len(subs) > 0 && v.Delegates() {
		agent = subs[len(subs)-1]
		others = subs[:len(subs)-1]
	}

	// PN forces a pending record, PC a collecting record, before any
	// Prepare leaves: the stable membership list is what lets their
	// presumptions hold through a coordinator crash.
	kind := v.PrePrepare()
	if kind != "" {
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: kind, Data: protocol.LogRecord{Kind: kind, Subs: subs}.Encode()}); err != nil {
			return p.abortTx(tx, txName, subs, v, protocol.Round{}), fmt.Errorf("live: force %s record: %w", strings.ToLower(kind), err)
		}
	}
	// An abort from here on counts as voted: once the Prepares leave,
	// any subordinate may be prepared.
	rd := protocol.Round{Logged: kind != "", Voted: true}

	// Vote bookkeeping is tree-sized slices, not maps: transaction
	// trees are a handful of subordinates, so membership is a linear
	// scan and the whole structure is two right-sized allocations. A
	// logless vote's redo payload, kept beside its voter, is a third.
	votes := make([]protocol.VoteValue, len(others))
	for i := range votes {
		votes[i] = unvoted
	}
	votedN := 0
	yes := make([]string, 0, len(others))
	var redos [][]byte
	if !v.SubPrepare(true).Prepared {
		redos = make([][]byte, 0, len(others))
	}
	// tally counts a reply if it is a first vote from one of others,
	// and reports whether it is a no.
	tally := func(env envelope) bool {
		i := indexOf(others, env.from)
		if i < 0 || votes[i] != unvoted || env.msg.Type != protocol.MsgVote {
			return false
		}
		votes[i] = env.msg.Vote
		votedN++
		if env.msg.Vote == protocol.VoteYes {
			yes = append(yes, others[i])
			if redos != nil {
				redos = append(redos, env.msg.Payload)
			}
		}
		return env.msg.Vote == protocol.VoteNo
	}
	// abort tells the subordinates that hear the outcome: all but the
	// read-only voters, and the agent, held out of phase one.
	abort := func() Outcome {
		owed := make([]string, 0, len(subs))
		for i, s := range others {
			if protocol.HearsOutcome(votes[i], votes[i] != unvoted) {
				owed = append(owed, s)
			}
		}
		return p.abortTx(tx, txName, append(owed, subs[len(others):]...), v, rd)
	}
	// Votes already in the inbox were volunteered before this call (§4
	// Unsolicited Vote); an unsolicited volunteer forced its own
	// Prepared record, so it carries no redo.
	for env := (envelope{}); p.take(st, false, &env); {
		if env.work {
			p.dispatch(st, &env)
		} else if tally(env) {
			return abort(), nil
		}
	}
	if votedN > 0 && p.met != nil {
		p.met.CostVolunteers(txName, votedN)
	}

	// Phase one: Prepares in parallel to everyone who has not already
	// volunteered a vote, each announcing the variant's presumption.
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: v}
	for i, s := range others {
		if votes[i] != unvoted {
			continue
		}
		if err := p.send(s, prep); err != nil {
			return abort(), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}

	localVote := protocol.PrepareAll(p.res, tx).Vote
	if localVote == protocol.VoteNo {
		return abort(), nil
	}

	// Collect the remaining votes, retransmitting Prepare, marked
	// Repeat (handlePrepare), to silent subordinates on the retry
	// policy's backoff schedule.
	if votedN < len(others) {
		alarm := p.newRetryAlarm(p.voteTimeout, txName, "")
		defer alarm.stop()
		prep.Repeat = true
		for votedN < len(others) {
			switch env, w := p.next(ctx, st, alarm.C()); w {
			case gotReply:
				if tally(env) {
					return abort(), nil
				}
			case rang:
				if alarm.expired() {
					return abort(), fmt.Errorf("live: collecting votes for %s: %w", txName, ErrTimeout)
				}
				for i, s := range others {
					if votes[i] == unvoted {
						_ = p.sendExtra(s, prep)
						p.countRetry()
					}
				}
			case crashed:
				return InDoubt, ErrCrashed
			case stopping:
				return abort(), fmt.Errorf("live: collecting votes for %s: %w", txName, errStopped)
			case cancelled:
				return abort(), ctx.Err()
			}
		}
	}

	if agent != "" {
		return p.delegate(ctx, st, tx, txName, agent, yes, localVote, v)
	}
	return p.decideCommit(ctx, st, tx, txName, yes, redos, localVote, v)
}

// TakesVolunteers reports whether this node, coordinating under v,
// takes subordinates' votes ahead of Commit (§4 Unsolicited Vote): the
// variant's rule, and no Last Agent, whose agent must get the
// delegation instead of a Prepare.
func (p *Participant) TakesVolunteers(v protocol.Variant) bool {
	return v.Unsolicited() && !p.lastAgent
}

// Vote is a subordinate's vote that came back with its reply to the
// coordinator's last work request (Volunteer).
type Vote struct {
	From string
	Vote protocol.VoteValue
}

// PostVotes hands this node, as coordinator of txName, the votes its
// subordinates volunteered in their replies to the last work request.
// They wait in the transaction's inbox: Commit tallies them and sends
// their voters no Prepare. Call it before Commit; a transaction that
// will not reach Commit is aborted with AbortVolunteered instead.
func (p *Participant) PostVotes(txName string, votes []Vote) {
	if len(votes) == 0 {
		return
	}
	for _, v := range votes {
		if p.met != nil {
			p.met.MessageReceived(p.name)
		}
		if p.traceOn {
			label := protocol.Message{Type: protocol.MsgVote, Vote: v.Vote, Unsolicited: true}.Label()
			p.trc.Add(trace.Event{Node: p.name, Peer: v.From, Kind: trace.KindReceive, Tx: txName, Detail: label + "(" + txName + ")"})
		}
	}
	sh := p.shardFor(txName)
	sh.mu.Lock()
	// A vote ahead of Commit is unsolicited: the entry it waits in is
	// born coordinated.
	st := sh.stateLocked(txName)
	st.isCoord = true
	st.inbox = slices.Grow(st.inbox, len(votes))
	var wake chan struct{}
	for _, v := range votes {
		m := protocol.Message{Type: protocol.MsgVote, Tx: txName, Vote: v.Vote, Unsolicited: true}
		_, wake = p.postLocked(st, envelope{from: v.From, msg: m})
	}
	sh.mu.Unlock()
	p.rouse(st, false, wake)
}

// AbortVolunteered aborts under v a transaction this node coordinates
// that will not reach Commit, after the subordinates subs volunteered
// a yes vote (Volunteer) or may have: they are prepared, so the abort
// reaches them through the protocol, by abortTx's rules: a PA
// coordinator writes nothing and collects no ack, a Basic 2PC one
// forces the abort and holds it until each has acked.
func (p *Participant) AbortVolunteered(txName string, subs []string, v protocol.Variant) {
	st := p.registerCoord(txName)
	defer p.unregisterCoord(st)
	if p.met != nil {
		p.met.CostBegin(txName, p.name, v.String(), len(subs))
		p.met.CostVolunteers(txName, len(subs)) // none was sent a Prepare
	}
	p.abortTx(protocol.ParseTxID(txName), txName, subs, v, protocol.Round{Voted: true})
}

// decideCommit takes the commit decision after unanimous yes votes
// and drives phase two. redos are the logless voters' redo payloads,
// one per yes-voter (nil unless the variant votes logless).
func (p *Participant) decideCommit(ctx context.Context, st *txState, tx protocol.TxID, txName string, yes []string, redos [][]byte, localVote protocol.VoteValue, v protocol.Variant) (Outcome, error) {
	d := v.Decide(true, protocol.Round{ReadOnly: localVote == protocol.VoteReadOnly && len(yes) == 0})
	if localVote == protocol.VoteReadOnly && p.met != nil {
		p.met.CostCoordReadOnly(txName)
	}
	var rec wal.Record
	if d.Write != protocol.NoWrite {
		rec = commitRecord(txName, p.name, yes, redos, d)
	}
	if d.Write == protocol.Forced && d.Redo && p.hooks.OnePhaseLazyDecision {
		// Injected bug (TestHooks): writing the tree's only durable
		// record lazily silently voids every voter's delegated
		// durability. The AC3 oracle must convict this.
		d.Write = protocol.Lazy
	}
	if err := p.write(rec, d.Write); err != nil {
		// The yes-voters sit prepared holding locks; tell them the
		// abort now rather than leaving them to recovery.
		return p.abortTx(tx, txName, yes, v, protocol.Round{Voted: true}), fmt.Errorf("live: force commit record: %w", err)
	}
	return p.commitPhaseTwo(ctx, st, tx, txName, yes, rec.Data, d, v.PrePrepare() != "")
}

// commitRecord is a coordinator's commit record, as decision d has it.
// When the outcome is acknowledged it names the yes-voters, whose acks
// a replay without End waits on again. A logless vote's record also
// embeds every voter's redo: it is the only stable state in the tree.
func commitRecord(txName, node string, yes []string, redos [][]byte, d protocol.Decision) wal.Record {
	r := protocol.LogRecord{Kind: protocol.RecCommitted}
	switch {
	case d.Redo:
		r.OnePhase, r.Subs, r.Redos = true, yes, redos
	case d.Acked:
		r.Subs = yes
	}
	return wal.Record{Tx: txName, Node: node, Kind: r.Kind, Data: r.Encode()}
}

// commitPhaseTwo publishes a commit decision, completes the local
// resources, and delivers the outcome to the yes-voters. It collects
// their acknowledgments itself only when d is not Early; otherwise a
// background collector does, and it returns at once. The decided-table
// entry stays pinned while acknowledgments are outstanding; End is
// written only once they are all in, and only if this node logged
// anything: logged says it forced a record before deciding
// (pre-prepare or delegation). data is the commit record's payload: a
// logless vote's record is its voters' only redo, so the pin keeps it
// for outcomes resent to them.
func (p *Participant) commitPhaseTwo(ctx context.Context, st *txState, tx protocol.TxID, txName string, yes []string, data []byte, d protocol.Decision, logged bool) (Outcome, error) {
	acks := d.Acked && len(yes) > 0
	p.recordDecision(txName, true, acks)
	if acks && d.Redo {
		p.setPinRedo(txName, data)
	}
	p.complete(tx, true)
	if p.met != nil {
		p.met.CostOutcome(txName, "committed", len(yes))
	}

	out := protocol.OutcomeMessage(txName, true)
	for _, s := range yes {
		_ = p.send(s, out)
	}
	switch {
	case !acks && d.Write == protocol.NoWrite && !logged:
		// A read-only round with nothing forced before it leaves no
		// record for End to close: it logs nothing at all (§4 Read
		// Only, analytic.PAReadOnlyAll).
		if p.met != nil {
			p.met.CostNodeDone(txName, p.name)
		}
		return Committed, nil
	case !acks:
		p.endCoord(txName, true)
		return Committed, nil
	}
	if !d.Early {
		// PN: the acks carry heuristic reports to the root, so the
		// caller waits for them.
		heur, err := p.collectAcks(ctx, st, txName, yes, out)
		if err == nil {
			p.endCoord(txName, true)
		}
		if derr := damageError(txName, heur); derr != nil {
			return Committed, derr
		}
		return Committed, err
	}
	// The commit is decided, written and announced, and its acks tell
	// the caller nothing, so their collection leaves the caller's
	// critical path.
	if st.detached {
		// A last-agent resolver: already off the caller's path.
		p.collectCommitAcks(st, txName, yes)
		return Committed, nil
	}
	// The collector takes the registration over.
	st.detached = true
	collect := func() {
		defer p.unregisterCoord(st)
		p.collectCommitAcks(st, txName, yes)
	}
	if !p.background(collect) {
		collect() // stopping: it gives up at once
	}
	return Committed, nil
}

// collectCommitAcks collects a commit's acks off the caller's path:
// it retransmits to stragglers, counts any damage they report on this
// node's metrics under the reporting node, since no caller hears of
// it, and writes End on the last ack. (A registry shared with that
// node has already counted the damage there, and counts it twice.)
// Voters that never ack resolve through recovery against the decision
// record.
func (p *Participant) collectCommitAcks(st *txState, txName string, yes []string) {
	heur, err := p.collectAcks(context.Background(), st, txName, yes, protocol.OutcomeMessage(txName, true))
	for _, h := range heur {
		if h.Damage && p.met != nil {
			p.met.Damage(h.Node)
		}
	}
	if err == nil {
		p.endCoord(txName, true)
	}
}

// delegation is what a delegating coordinator holds until its last
// agent answers: the agent, the other yes-voters to tell the outcome,
// the variant, and what it knows as the decision's owner.
type delegation struct {
	tx    protocol.TxID
	agent string
	yes   []string
	v     protocol.Variant
	rd    protocol.Round
}

// delegate hands the decision to the last agent (§4): it forces the
// delegation record, sends the combined "prepare, you decide" message,
// and waits for the answer (awaitAgent).
func (p *Participant) delegate(ctx context.Context, st *txState, tx protocol.TxID, txName, agent string, yes []string, localVote protocol.VoteValue, v protocol.Variant) (Outcome, error) {
	dl := &delegation{tx: tx, agent: agent, yes: yes, v: v,
		rd: protocol.Round{ReadOnly: localVote == protocol.VoteReadOnly && len(yes) == 0, Logged: v.PrePrepare() != "", Voted: true}}
	// The live pre-prepare record names no agent, so it cannot stand
	// for the delegation record.
	if !dl.rd.ReadOnly {
		r := protocol.LogRecord{Kind: protocol.RecPrepared, Presume: v, Agent: agent, Subs: yes}
		rec := wal.Record{Tx: txName, Node: p.name, Kind: r.Kind, Data: r.Encode()}
		if err := p.force(rec); err != nil {
			return p.abortTx(tx, txName, yes, v, dl.rd), fmt.Errorf("live: force delegation record: %w", err)
		}
		dl.rd.Logged = true
	}
	if err := p.send(agent, dl.message(txName, false)); err != nil {
		if p.Crashed() {
			// The delegation may be out: the restart asks the agent.
			return InDoubt, ErrCrashed
		}
		// Nothing was delegated; the decision is still ours.
		return p.abortTx(tx, txName, append(append([]string{}, yes...), agent), v, dl.rd), fmt.Errorf("live: delegate to %s: %w", agent, err)
	}
	return p.awaitAgent(ctx, st, txName, dl, false)
}

// message is the delegation: a Prepare that hands over the decision;
// repeat marks one sent again because no answer came.
func (dl *delegation) message(txName string, repeat bool) protocol.Message {
	return protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: dl.v, Delegate: true, Repeat: repeat}
}

// awaitAgent waits for the last agent's decision, asking again by
// repeating the delegation on the retry policy's backoff — an agent
// that decided answers from its decided table, one the delegation
// never reached decides now — and finishes phase two with it. A
// delegating coordinator cannot presume: past the vote deadline, or
// once ctx ends, it stays in doubt, answering inquiries InProgress,
// while a background resolver that takes st over keeps
// asking (resolveLater). The resolver is this loop with no deadline.
func (p *Participant) awaitAgent(ctx context.Context, st *txState, txName string, dl *delegation, resolver bool) (Outcome, error) {
	dm := dl.message(txName, true)
	alarm := p.newRetryAlarm(p.voteTimeout, txName, "/agent")
	defer func() { alarm.stop() }()
	for {
		var err error
		switch env, w := p.next(ctx, st, alarm.C()); w {
		case gotReply:
			if commit, ok := protocol.OutcomeOf(&env.msg); ok && env.from == dl.agent {
				return p.finishDelegation(ctx, st, txName, dl, commit)
			}
			continue
		case rang:
			if !alarm.expired() {
				_ = p.sendExtra(dl.agent, dm)
				p.countRetry()
				continue
			}
			err = ErrTimeout
		case crashed:
			return InDoubt, ErrCrashed
		case stopping:
			return InDoubt, fmt.Errorf("live: stopped awaiting last agent %s for %s: %w", dl.agent, txName, ErrInDoubt)
		case cancelled:
			err = ctx.Err()
		}
		if !resolver {
			if p.met != nil {
				p.met.InDoubtEntry(p.name)
			}
			p.resolveLater(st, txName, dl)
			return InDoubt, fmt.Errorf("live: awaiting last agent %s for %s: %w (%w)", dl.agent, txName, ErrInDoubt, err)
		}
		alarm.stop()
		alarm = p.newRetryAlarm(p.ackTimeout, txName, "/agent")
		_ = p.sendExtra(dl.agent, dm)
	}
}

// resolveLater hands st, consumer role and registration, to a
// background resolver that asks dl's agent until it answers. It runs
// when Commit stops waiting, and at Start for a delegation record the
// replay found undecided.
func (p *Participant) resolveLater(st *txState, txName string, dl *delegation) {
	st.detached = true
	resolve := func() {
		defer p.unregisterCoord(st)
		_ = p.sendExtra(dl.agent, dl.message(txName, true))
		_, _ = p.awaitAgent(context.Background(), st, txName, dl, true)
	}
	if !p.background(resolve) {
		resolve() // stopping: it gives up at once
	}
}

// finishDelegation applies the last agent's decision as the decision
// owner's: the record the rulebook asks for, the local resources, and
// the outcome to the other yes-voters, whose acks it then collects.
// Once the record is written it acknowledges the decision to the agent
// if the variant acknowledges it, which lets the agent forget it.
func (p *Participant) finishDelegation(ctx context.Context, st *txState, txName string, dl *delegation, commit bool) (Outcome, error) {
	ack := func() {
		if dl.v.Acks(commit) {
			_ = p.sendExtra(dl.agent, protocol.Message{Type: protocol.MsgAck, Tx: txName})
		}
	}
	if !commit {
		out := p.abortTx(dl.tx, txName, dl.yes, dl.v, dl.rd)
		ack()
		return out, nil
	}
	d := dl.v.Decide(true, dl.rd)
	if err := p.write(commitRecord(txName, p.name, dl.yes, nil, d), d.Write); err != nil {
		// The global decision is commit regardless; record what we can
		// and surface the log failure. No End will follow, so this
		// node's part of the cost ledger closes here.
		if p.met != nil {
			p.met.CostNodeDone(txName, p.name)
		}
		return Committed, fmt.Errorf("live: force commit record after delegation: %w", err)
	}
	ack()
	return p.commitPhaseTwo(ctx, st, dl.tx, txName, dl.yes, nil, d, dl.rd.Logged)
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
		switch env, w := p.next(ctx, st, alarm.C()); w {
		case gotReply:
			i := indexOf(targets, env.from)
			if i < 0 || acked[i] || env.msg.Type != protocol.MsgAck {
				continue
			}
			acked[i] = true
			ackedN++
			heur = append(heur, env.msg.Heuristics...)
		case rang:
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
		case stopping:
			// Shutdown mid-collection (e.g. a background collector
			// when the participant stops): the outcome is decided and
			// durable; outstanding deliveries fall to recovery.
			giveUp()
			return heur, fmt.Errorf("live: participant stopped with acks outstanding for %s: %w", txName, ErrInDoubt)
		case crashed:
			return heur, ErrCrashed
		case cancelled:
			giveUp()
			return heur, ctx.Err()
		}
	}
	return heur, nil
}

// abortTx takes an abort decision on the coordinator's own initiative:
// log it as the rulebook asks for round rd (nothing under a presumed
// abort), release local resources, and tell subs best-effort: the
// subordinates that hear the outcome (protocol.HearsOutcome), never a
// read-only voter. Prepared subordinates that miss the message resolve
// through inquiry and presumption. When aborts are acknowledged the
// record names subs, and the decided-table entry stays pinned — End
// unwritten — until every subordinate told has acknowledged.
func (p *Participant) abortTx(tx protocol.TxID, txName string, subs []string, v protocol.Variant, rd protocol.Round) Outcome {
	d := v.Decide(false, rd)
	acks := d.Acked && len(subs) > 0
	rec := wal.Record{Tx: txName, Node: p.name, Kind: protocol.RecAborted}
	if acks {
		rec.Data = protocol.LogRecord{Kind: rec.Kind, Subs: subs}.Encode()
	}
	_ = p.write(rec, d.Write)
	p.recordDecision(txName, false, acks)
	if acks {
		p.awaitLateAcks(nil, txName, append([]string(nil), subs...), true)
	}
	p.complete(tx, false)
	if p.met != nil {
		p.met.CostOutcome(txName, "aborted", len(subs))
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

// unvoted marks a subordinate whose vote the coordinator does not have.
const unvoted protocol.VoteValue = -1

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

// registerCoord enters txName in the table as a transaction this node
// coordinates, with the caller as its consumer. An unsolicited vote
// may have entered it already, to wait in its inbox; no consumer can
// hold it, since nothing but replies reaches a transaction before its
// coordinator's Prepares leave (one id is coordinated once at a time).
func (p *Participant) registerCoord(txName string) *txState {
	sh := p.shardFor(txName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.stateLocked(txName)
	st.isCoord, st.consuming = true, true
	return st
}

// unregisterCoord drops the coordinator's entry once collection is
// over — the outcome lives on in the decided table — and gives up the
// consumer role. Caller is the consumer.
func (p *Participant) unregisterCoord(st *txState) {
	// An undecided Paxos transaction with acceptor state must keep it:
	// this node promised its acceptances to recovery leaders, and
	// forgetting them while the process lives would let two leaders
	// learn different outcomes. Only the coordinator role goes.
	keep := st.pax != nil && st.pax.Holds()
	sh := st.sh
	sh.mu.Lock()
	if _, decided := sh.decidedLocked(st.id); keep && !decided {
		st.isCoord = false
	} else {
		// A participant never subordinates a transaction it
		// coordinates, so the whole entry can go.
		delete(sh.txs, st.id)
		st.gone = true
	}
	sh.mu.Unlock()
	p.release(st)
}
