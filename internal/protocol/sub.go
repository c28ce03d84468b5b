package protocol

import "errors"

// One subordinate's part in one classic transaction (Basic 2PC, PA, PN,
// PC, 1PC), sequenced once for both engines: a Prepare or a volunteered
// vote, the vote, the outcome and its ack, a last agent's decision, and
// the answers a decided transaction gives. It is the resource manager
// of Gray & Lamport's Consensus on Transaction Commit — working, then
// prepared, then committed or aborted, moved only by message actions.
// As in PaxosTx, nothing here has a clock, a network or a log: each
// input is one method, which updates the state and returns a value
// naming the I/O its driver then does, in order. The rules it applies
// are classic.go's.

// Sub is one subordinate's state in one transaction.
type Sub struct {
	Presume   Variant // announced by the Prepare (or named by the volunteer, or the node's own)
	Prepared  bool    // voted yes: holds the prepared state until the outcome
	Done      bool    // the outcome is applied here
	Committed bool    // and it was commit

	// The vote sent, which Vote rebuilds: kept in pieces, since a whole
	// Message would be most of a Sub's size. Redo is the redo a logless
	// yes carries.
	volunteered bool
	vote        VoteValue
	tx          string
	Redo        []byte
}

// Vote is the vote sent, which a resent Prepare gets again.
func (s *Sub) Vote() Message {
	return Message{Type: MsgVote, Tx: s.tx, Vote: s.vote, Unsolicited: s.volunteered, Payload: s.Redo}
}

// Do is what a step asks of its driver first.
type Do uint8

// What an input can ask for.
const (
	DoNothing Do = iota
	DoReply      // send Step.Msg to the sender, off the paper's flow count
	DoPrepare    // prepare the resources (and any subtree); hand the folded vote to Voted, or Decide
	DoDecide     // a repeated delegation under presumed abort: Decide VoteNo, preparing nothing
	DoApply      // write the outcome record as Step.Write asks, complete, Finish, End; ack if Step.Ack
)

// Step is the I/O one input asks for: a value, so no input allocates.
// Unasked (DoApply) says no Prepare reached the subordinate: its ack is
// recovery traffic, not one of the paper's flows, and a commit may
// carry its redo (it crashed after a logless yes).
type Step struct {
	Do           Do
	Msg          Message // DoReply's message
	Write        Write   // DoApply's outcome record
	Ack, Unasked bool
}

// Ask says what asked for a vote: a Prepare, one marked Repeat (the
// first may have been answered), or none — the vote rides the reply to
// the last work request (§4 Unsolicited Vote).
type Ask uint8

// The three ways into a vote.
const (
	Asked Ask = iota
	Resent
	Volunteered
)

// Then is what becomes of the entry once it has voted: a yes-voter
// waits for the outcome, a no-voter aborts here knowing it, and a
// read-only voter leaves, keeping nothing (HearsOutcome).
type Then uint8

// The three ends of a vote.
const (
	Stays Then = iota
	Aborts
	Leaves
)

// VoteStep is what a vote asks of its driver: force Force's records (a
// yes), send s.Vote() — carrying the voter's redo when Redo, as an extra
// flow when Extra (a resent Prepare's read-only vote may repeat one
// already counted) —, then keep, finish or drop the entry.
type VoteStep struct {
	Force       Prepare
	Redo, Extra bool
	Then        Then
}

// Own is what a subordinate knows beyond its Sub when an outcome
// reaches it: its own variant, which rules an outcome no Prepare
// announced; whether that is surely its coordinator's (the simulator
// runs one variant everywhere, a live node serves any); whether it
// logged anything for the transaction, which decides whether an abort
// has something to record (the simulator says whether it wrote a
// record, the runtime counts any yes vote: DESIGN §3); and whether its
// decided table already holds the transaction (Retired: a late message
// resurrected a blank entry after it retired).
type Own struct {
	Variant                    Variant
	Announced, Logged, Retired bool
}

// Prepare is the step for a Prepare: the answer from the decision, a
// delegation's path, the kept vote again, or prepare now.
func (s *Sub) Prepare(m *Message) Step {
	switch {
	case s.Done:
		return s.Answer(m)
	case m.Delegate:
		return s.Delegate(m)
	}
	return s.askUnder(m.Presume)
}

// askUnder is a vote asked for under v: the kept one, or prepare now.
func (s *Sub) askUnder(v Variant) Step {
	if s.Prepared {
		return Step{Do: DoReply, Msg: s.Vote()}
	}
	s.Presume = v
	return Step{Do: DoPrepare}
}

// Volunteer is the step for a vote offered before any Prepare, under
// the coordinator's variant v: the kept vote again, or prepare now. A
// decided transaction volunteers nothing (DoNothing).
func (s *Sub) Volunteer(v Variant) Step {
	if s.Done {
		return Step{}
	}
	return s.askUnder(v)
}

// Voted takes the folded vote v of the subordinate's resources (and, in
// the simulator, of its subtree) for transaction tx; leaf says it asked
// nobody else to prepare. A yes forces the prepare records first; a
// logless one carries its redo instead. A read-only voter hears no
// outcome (HearsOutcome) and keeps nothing. A driver whose force fails
// calls Voted again with VoteNo.
func (s *Sub) Voted(tx string, v VoteValue, leaf bool, ask Ask) VoteStep {
	s.tx, s.vote, s.volunteered, s.Redo = tx, v, ask == Volunteered, nil
	s.Prepared = v == VoteYes
	switch v {
	case VoteYes:
		pr := s.Presume.SubPrepare(leaf)
		return VoteStep{Force: pr, Redo: !pr.Prepared}
	case VoteNo:
		s.Done, s.Committed = true, false
		return VoteStep{Then: Aborts}
	}
	return VoteStep{Then: Leaves, Extra: ask == Resent}
}

// Outcome is the step for an outcome reaching the subordinate: a
// re-ack of one it applied (Acks), nothing for a blank entry the
// decided table answers for, or Apply's record and ack. The driver
// calls Finish once the record is written; a failed force leaves the
// subordinate prepared for the coordinator's next retransmission.
func (s *Sub) Outcome(tx string, commit bool, own Own) Step {
	switch {
	case s.Done:
		if s.Committed == commit && s.Acks() {
			return Step{Do: DoReply, Msg: Message{Type: MsgAck, Tx: tx}}
		}
		return Step{}
	case !s.Prepared && own.Retired:
		return Step{}
	case !s.Prepared:
		// No Prepare announced the variant (the outcome overtook it, or
		// the node forgot): the node's own rules it, and a duplicate of
		// the outcome is answered under them.
		s.Presume = own.Variant
	}
	a := s.Presume.Apply(commit, own.Logged, s.Prepared || own.Announced)
	return Step{Do: DoApply, Write: a.Write, Ack: a.Ack, Unasked: !s.Prepared}
}

// Acks reports whether the outcome applied here is acknowledged.
func (s *Sub) Acks() bool { return s.Done && s.Presume.Acks(s.Committed) }

// Reinstate brings the subordinate back in doubt after a restart from
// its Prepared record rec: prepared, under the presumption rec names
// (none: presume nothing, whose rules are safe under every variant).
func (s *Sub) Reinstate(rec *LogRecord) {
	s.Prepared = true
	if rec != nil {
		s.Presume = rec.Presume
	}
}

// Finish marks the outcome applied.
func (s *Sub) Finish(commit bool) {
	if !s.Done {
		s.Done, s.Committed = true, commit
	}
}

// Delegate is the step for a delegation, which makes this subordinate
// the last agent (§4): answer from the decision; under presumed abort,
// decide abort on a repeat that finds none (AbortsRepeat); otherwise
// prepare and Decide.
func (s *Sub) Delegate(m *Message) Step {
	if s.Done {
		return s.Answer(m)
	}
	s.Presume = m.Presume
	if m.Vote == VoteNo || m.Repeat && s.Presume.AbortsRepeat() {
		return Step{Do: DoDecide}
	}
	return Step{Do: DoPrepare}
}

// Decide is a last agent's decision on its folded vote v: commit
// unless v is a no, written as the rulebook asks of a decision owner. A
// decision Acked names the coordinator in its record and is held,
// End unwritten, until the coordinator acks it; otherwise End follows.
// A driver whose commit force fails calls Decide again with VoteNo.
func (s *Sub) Decide(v VoteValue) (commit bool, d Decision) {
	commit = v != VoteNo
	return commit, s.Presume.Decide(commit, Round{ReadOnly: v == VoteReadOnly, Voted: true})
}

// Answer is the step for a message reaching a subordinate whose
// transaction is decided here, from that decision alone: a decided
// transaction must not prepare, lock or log again. A delegation gets
// the decision again. Any other Prepare of an aborted transaction gets
// a no vote, which is always safe; a committed one can only see a
// duplicate Prepare, and a Paxos Commit Prepare is answered through the
// acceptors. A duplicate outcome gets the ack it is owed.
func (s *Sub) Answer(m *Message) Step {
	switch {
	case m.Delegate || m.LastAgent:
		return Step{Do: DoReply, Msg: OutcomeMessage(m.Tx, s.Committed)}
	case m.Type == MsgPrepare && !s.Committed && m.Presume != VariantPaxos:
		return Step{Do: DoReply, Msg: Message{Type: MsgVote, Tx: m.Tx, Vote: VoteNo}}
	}
	if commit, ok := OutcomeOf(m); ok {
		return s.Outcome(m.Tx, commit, Own{})
	}
	return Step{}
}

// OutcomeOf reports the outcome m carries: a Commit, an Abort, or an
// inquiry's definite answer.
func OutcomeOf(m *Message) (commit, ok bool) {
	switch m.Type {
	case MsgCommit:
		return true, true
	case MsgAbort:
		return false, true
	case MsgOutcome:
		switch m.Outcome {
		case OutcomeCommit:
			return true, true
		case OutcomeAbort:
			return false, true
		}
	}
	return false, false
}

// PrepareAll prepares every resource in rs for tx and folds their
// answers: a failure or a no is a no, and the resources after it are
// not asked; all read-only is read-only; Reliable and OKToLeaveOut
// hold when every resource says so.
func PrepareAll(rs []Resource, tx TxID) PrepareResult {
	fold := PrepareResult{Vote: VoteReadOnly, Reliable: true, OKToLeaveOut: true}
	for _, r := range rs {
		pr, err := r.Prepare(tx)
		if err != nil || pr.Vote == VoteNo {
			return PrepareResult{Vote: VoteNo}
		}
		if pr.Vote == VoteYes {
			fold.Vote = VoteYes
		}
		fold.Reliable = fold.Reliable && pr.Reliable
		fold.OKToLeaveOut = fold.OKToLeaveOut && pr.OKToLeaveOut
	}
	return fold
}

// CompleteAll applies the outcome to every resource in rs and returns,
// naming node, a report for each that had already completed
// unilaterally (a heuristic decision), which then forgets it.
func CompleteAll(rs []Resource, tx TxID, commit bool, node string) []HeuristicReport {
	var heur []HeuristicReport
	for _, r := range rs {
		var err error
		if commit {
			err = r.Commit(tx)
		} else {
			err = r.Abort(tx)
		}
		hc, ok := r.(HeuristicCapable)
		if err == nil || !ok || !errors.Is(err, ErrHeuristicConflict) {
			continue
		}
		taken, tookCommit := hc.HeuristicTaken(tx)
		if !taken {
			continue
		}
		heur = append(heur, HeuristicReport{Node: node, Committed: tookCommit, Damage: tookCommit != commit})
		if f, ok := r.(interface{ Forget(TxID) }); ok {
			f.Forget(tx)
		}
	}
	return heur
}
