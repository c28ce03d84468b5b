package live

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/protocol"
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
// the decision: the commit acks only let this node forget it, so they
// are owed to the pinned decided-table entry, which each strikes as it
// arrives, and a subordinate may not have applied the commit yet. A
// transactional read of its writes waits on the locks the subordinate
// holds until it does; a lock-free peek (kvstore.ReadCommitted) may lag
// until its ack is in (PinnedDecisions drops to 0). Under PN Commit
// returns once every ack is in, since they carry heuristic reports it
// returns as ErrHeuristicDamage; PC commits are not acked, and Paxos
// Commit returns once an acceptor quorum has learned the decision.
// Aborts return at the decision under every variant.
//
// subs is read until the decision, which after a last-agent delegation
// may come after Commit returns: the caller must not change it.
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
//
// votes are those subordinates volunteered with their replies to the
// last work request (Volunteer): they are tallied first, and their
// voters get no Prepare.
func (p *Participant) CommitVariant(ctx context.Context, txName string, subs []string, v protocol.Variant, votes ...Vote) (Outcome, error) {
	start := p.sched.Now()
	out, err := p.runCommit(ctx, txName, subs, v, votes)
	if p.met != nil {
		// The coordinator's cost-ledger entry closes with its End
		// record (endCoord), once every acknowledgment is in.
		p.met.Latency(p.sched.Now() - start)
		p.met.Outcome(out.String())
	}
	return out, err
}

func (p *Participant) runCommit(ctx context.Context, txName string, subs []string, v protocol.Variant, votes []Vote) (Outcome, error) {
	tx := protocol.ParseTxID(txName)
	st := p.registerCoord(txName)
	defer func() {
		// A last-agent resolver (awaitAgent) outlives this call as the
		// consumer and unregisters when it is done.
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

	// The round (protocol.Coord) holds the last subordinate out of
	// phase one when Last Agent is on and the variant delegates, and
	// names the record to force before any Prepare leaves.
	c := &st.coord
	c.OnePhaseLazyDecision = p.hooks.OnePhaseLazyDecision
	agent := ""
	if p.lastAgent && len(subs) > 0 {
		agent = subs[len(subs)-1]
	}
	if pre := c.Begin(v, subs, agent); pre.Kind != "" {
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: pre.Kind, Data: pre.Encode()}); err != nil {
			return p.abort(txName, c, false), fmt.Errorf("live: force %s record: %w", strings.ToLower(pre.Kind), err)
		}
		c.Logged = true
	}

	// The volunteered votes came in with the replies to the last work
	// request (§4 Unsolicited Vote): all are received, and tallied up to
	// the first no.
	owed, next := c.Pending(), protocol.NextCollect
	for _, vt := range votes {
		m := protocol.Message{Type: protocol.MsgVote, Tx: txName, Vote: vt.Vote, Unsolicited: true}
		p.received(vt.From, &m)
		if next != protocol.NextAbort {
			next = c.Vote(vt.From, &m)
		}
	}
	if next == protocol.NextAbort {
		return p.abort(txName, c, false), nil
	}
	if n := owed - c.Pending(); n > 0 && p.met != nil {
		p.met.CostVolunteers(txName, n)
	}

	// Phase one: Prepares in parallel to everyone who has not already
	// volunteered a vote, each announcing the variant's presumption.
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: v}
	c.Ask()
	for i, s := range subs {
		if !c.Silent(i) {
			continue
		}
		if err := p.send(s, prep); err != nil {
			return p.abort(txName, c, false), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}
	localVote := protocol.PrepareAll(p.res, tx).Vote
	next = c.Local(localVote)

	// Collect the remaining votes, retransmitting Prepare, marked
	// Repeat (handlePrepare), to silent subordinates on the retry
	// policy's backoff schedule.
	if next == protocol.NextCollect {
		alarm := p.newRetryAlarm(p.voteTimeout, txName, "")
		defer alarm.stop()
		prep.Repeat = true
		for next == protocol.NextCollect {
			switch env, w := p.next(ctx, st, alarm.C()); w {
			case gotReply:
				next = c.Vote(env.from, &env.msg)
			case rang:
				if alarm.expired() {
					return p.abort(txName, c, false), fmt.Errorf("live: collecting votes for %s: %w", txName, ErrTimeout)
				}
				for i, s := range subs {
					if c.Silent(i) {
						_ = p.sendExtra(s, prep)
						p.countRetry()
					}
				}
			case crashed:
				return InDoubt, ErrCrashed
			case stopping:
				return p.abort(txName, c, false), fmt.Errorf("live: collecting votes for %s: %w", txName, errStopped)
			case cancelled:
				return p.abort(txName, c, false), ctx.Err()
			}
		}
	}
	switch next {
	case protocol.NextAbort:
		return p.abort(txName, c, false), nil
	case protocol.NextDelegate:
		return p.delegate(ctx, st, txName)
	}
	if localVote == protocol.VoteReadOnly && p.met != nil {
		p.met.CostCoordReadOnly(txName)
	}
	return p.commit(ctx, st, txName)
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

// AbortVolunteered aborts under v a transaction this node coordinates
// that will not reach Commit, after the subordinates subs volunteered
// a yes vote (Volunteer) or may have: they are prepared, so the abort
// reaches them through the protocol, by the round's rules: a PA
// coordinator writes nothing and collects no ack, a Basic 2PC one
// forces the abort and holds it until each has acked.
func (p *Participant) AbortVolunteered(txName string, subs []string, v protocol.Variant) {
	st := p.registerCoord(txName)
	defer p.unregisterCoord(st)
	if p.met != nil {
		p.met.CostBegin(txName, p.name, v.String(), len(subs))
		p.met.CostVolunteers(txName, len(subs)) // none was sent a Prepare
	}
	st.coord.Reinstate(v, subs, "")
	p.abort(txName, &st.coord, false)
}

// commit takes the commit decision as the round's owner and runs phase
// two: the record, the decided table (pinned while acks are owed; a
// logless vote's record, its voters' only redo, pinned with it), the
// resources, the outcome, and the acks, owed to the pin before the
// outcome leaves (awaitAcks) and read here too only when the decision
// is not Early. End follows the last ack, if this node logged
// anything.
func (p *Participant) commit(ctx context.Context, st *txState, txName string) (Outcome, error) {
	c := &st.coord
	d := c.Decide(true)
	var rec wal.Record
	if d.Write != protocol.NoWrite {
		r := protocol.LogRecord{Kind: protocol.RecCommitted}
		switch {
		case d.Redo:
			// The only stable state in the tree: every voter's redo.
			r.OnePhase, r.Subs, r.Redos = true, d.Yes, d.Redos
		case d.Acked:
			// A replay without End waits on these acks again.
			r.Subs = d.Yes
		}
		rec = wal.Record{Tx: txName, Node: p.name, Kind: r.Kind, Data: r.Encode()}
	}
	if err := p.write(rec, d.Write); err != nil {
		if c.Agent() == "" {
			// The yes-voters sit prepared holding locks; tell them the
			// abort now rather than leaving them to recovery.
			return p.abort(txName, c, false), fmt.Errorf("live: force commit record: %w", err)
		}
		// The agent's decision is commit regardless; surface the log
		// failure. No End will follow, so this node's part of the cost
		// ledger closes here.
		if p.met != nil {
			p.met.CostNodeDone(txName, p.name)
		}
		return Committed, fmt.Errorf("live: force commit record after delegation: %w", err)
	}
	if d.AckAgent {
		_ = p.sendExtra(c.Agent(), protocol.Message{Type: protocol.MsgAck, Tx: txName})
	}
	acks := c.Owed() > 0
	p.recordDecision(txName, true, acks)
	if acks {
		if !d.Early {
			// PN: the acks carry heuristic reports to the caller, who
			// reads them as they strike the pin (collectAcks).
			st.sh.mu.Lock()
			st.collecting = true
			st.sh.mu.Unlock()
		}
		var redo []byte // a 1PC record: the resent outcomes carry its redo
		if d.Redo {
			redo = rec.Data
		}
		p.awaitAcks(txName, c.Missing(), redo, true)
	}
	p.complete(protocol.ParseTxID(txName), true)
	if p.met != nil {
		p.met.CostOutcome(txName, "committed", len(d.Yes))
	}
	out := protocol.OutcomeMessage(txName, true)
	for _, s := range d.Yes {
		_ = p.send(s, out)
	}
	switch {
	case !acks && !c.Logged && d.Write == protocol.NoWrite:
		// A read-only round with nothing forced before it leaves no
		// record for End to close: it logs nothing at all (§4 Read
		// Only, analytic.PAReadOnlyAll).
		if p.met != nil {
			p.met.CostNodeDone(txName, p.name)
		}
	case !acks:
		p.endCoord(txName, true)
	case !d.Early:
		err := p.collectAcks(ctx, st, txName)
		if derr := damageError(txName, c.Heuristics); derr != nil {
			return Committed, derr
		}
		return Committed, err
	}
	// Any acks are the pin's: they tell the caller nothing.
	return Committed, nil
}

// delegate hands the decision to the last agent (§4): the delegation
// record (the pre-prepare record names no agent), the combined
// "prepare, you decide" message, and the wait for its answer.
func (p *Participant) delegate(ctx context.Context, st *txState, txName string) (Outcome, error) {
	c := &st.coord
	if r := c.Delegate(); r.Kind != "" {
		if err := p.force(wal.Record{Tx: txName, Node: p.name, Kind: r.Kind, Data: r.Encode()}); err != nil {
			return p.abort(txName, c, false), fmt.Errorf("live: force delegation record: %w", err)
		}
		c.Logged = true
	}
	if err := p.send(c.Agent(), delegation(txName, c.Variant, false)); err != nil {
		if p.Crashed() {
			// The delegation may be out: the restart asks the agent.
			return InDoubt, ErrCrashed
		}
		// Nothing was delegated; the decision is still ours.
		return p.abort(txName, c, false), fmt.Errorf("live: delegate to %s: %w", c.Agent(), err)
	}
	return p.awaitAgent(ctx, st, txName, false)
}

// delegation is the last agent's Prepare that hands over the decision;
// repeat marks one sent again because no answer came.
func delegation(txName string, v protocol.Variant, repeat bool) protocol.Message {
	return protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: v, Delegate: true, Repeat: repeat}
}

// awaitAgent waits for the last agent's decision, repeating the
// delegation on the retry backoff (an agent that decided answers from
// its decided table), and finishes phase two with it as the owner's.
// It cannot presume: past the vote deadline, or once ctx ends, it stays
// in doubt, answering InProgress, while a background resolver — this
// loop with no deadline — keeps asking (resolveLater).
func (p *Participant) awaitAgent(ctx context.Context, st *txState, txName string, resolver bool) (Outcome, error) {
	c := &st.coord
	agent := c.Agent()
	dm := delegation(txName, c.Variant, true)
	alarm := p.newRetryAlarm(p.voteTimeout, txName, "/agent")
	defer func() { alarm.stop() }()
	for {
		var err error
		switch env, w := p.next(ctx, st, alarm.C()); w {
		case gotReply:
			switch commit, ok := c.Answer(env.from, &env.msg); {
			case !ok:
				continue
			case commit:
				return p.commit(ctx, st, txName)
			}
			return p.abort(txName, c, false), nil
		case rang:
			if !alarm.expired() {
				_ = p.sendExtra(agent, dm)
				p.countRetry()
				continue
			}
			err = ErrTimeout
		case crashed:
			return InDoubt, ErrCrashed
		case stopping:
			return InDoubt, fmt.Errorf("live: stopped awaiting last agent %s for %s: %w", agent, txName, ErrInDoubt)
		case cancelled:
			err = ctx.Err()
		}
		if !resolver {
			if p.met != nil {
				p.met.InDoubtEntry(p.name)
			}
			p.resolveLater(st, txName)
			return InDoubt, fmt.Errorf("live: awaiting last agent %s for %s: %w (%w)", agent, txName, ErrInDoubt, err)
		}
		alarm.stop()
		alarm = p.newRetryAlarm(p.ackTimeout, txName, "/agent")
		_ = p.sendExtra(agent, dm)
	}
}

// resolveLater hands st, consumer role and registration, to a
// background resolver that asks its agent until it answers. It runs
// when Commit stops waiting, and at Start for a delegation record the
// replay found undecided.
func (p *Participant) resolveLater(st *txState, txName string) {
	st.detached = true
	resolve := func() {
		defer p.unregisterCoord(st)
		_ = p.sendExtra(st.coord.Agent(), delegation(txName, st.coord.Variant, true))
		_, _ = p.awaitAgent(context.Background(), st, txName, true)
	}
	if !p.background(resolve) {
		resolve() // stopping: it gives up at once
	}
}

// collectAcks waits until the ack deadline for the acks st's round
// owes, reading each for its heuristic reports once it has struck the
// pin (route), whose resender sends the outcome again meanwhile and
// counts those still owed at its deadline in doubt.
func (p *Participant) collectAcks(ctx context.Context, st *txState, txName string) error {
	c := &st.coord
	t := p.sched.NewTimer(p.ackTimeout)
	defer t.Stop()
	for c.Owed() > 0 {
		switch env, w := p.next(ctx, st, t.C()); w {
		case gotReply:
			c.Ack(env.from, &env.msg)
		case rang:
			return fmt.Errorf("live: %d/%d acks outstanding for %s; delivery falls to recovery: %w", c.Owed(), len(c.Subs), txName, ErrInDoubt)
		case stopping:
			return fmt.Errorf("live: participant stopped with acks outstanding for %s: %w", txName, ErrInDoubt)
		case crashed, cancelled:
			return w.err(ctx)
		}
	}
	return nil
}

// abort decides abort for round c and runs it: the record (naming
// those told when aborts are acked, and the decided entry pinned, End
// unwritten, until each acks: awaitAcks), the resources, and the
// Aborts to those that hear it (protocol.Coord.Tells). With recovery set
// the round is one a crash cut short (an undecided pre-prepare record,
// or a vote for a forgotten transaction): no resource or ledger, extra
// flows, and nothing more if the record fails (the next restart retries).
func (p *Participant) abort(txName string, c *protocol.Coord, recovery bool) Outcome {
	d := c.Decide(false)
	owed := c.Missing()
	rec := wal.Record{Tx: txName, Node: p.name, Kind: protocol.RecAborted}
	if owed != nil {
		rec.Data = protocol.LogRecord{Kind: rec.Kind, Subs: owed}.Encode()
	}
	if err := p.write(rec, d.Write); err != nil && recovery {
		return Aborted
	}
	p.recordDecision(txName, false, owed != nil)
	if owed != nil {
		p.awaitAcks(txName, owed, nil, !recovery)
	}
	if !recovery {
		p.complete(protocol.ParseTxID(txName), false)
		if p.met != nil {
			p.met.CostOutcome(txName, "aborted", d.Told)
		}
	}
	for i, s := range c.Subs {
		if c.Tells(i) {
			_ = p.sendFlow(s, protocol.OutcomeMessage(txName, false), recovery)
		}
	}
	if owed == nil && !recovery {
		p.endCoord(txName, true)
	}
	if d.AckAgent {
		_ = p.sendExtra(c.Agent(), protocol.Message{Type: protocol.MsgAck, Tx: txName})
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

// registerCoord enters txName in the table as a transaction this node
// coordinates, with the caller as its consumer. No consumer can hold
// it already, since nothing but replies reaches a transaction before
// its coordinator's Prepares leave (one id is coordinated once at a
// time).
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
