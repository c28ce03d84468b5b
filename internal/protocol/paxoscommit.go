package protocol

import "math/bits"

// Paxos Commit's rules, written once for both engines (the protocol is
// described in paxoslead.go). Nothing here has a clock, a network or a
// log. PaxosTx is one node's state for one transaction (membership, its
// own instance's vote, its acceptor role); PaxosRound is a leader's
// tally for one ballot. Each call says what its driver must do — write
// a record, forced or not, and send its reply; send a proposal; apply a
// decision — and the driver does it.

// PaxosMaxAttempts caps the recovery rounds one leader runs before it
// leaves the transaction to an operator.
const PaxosMaxAttempts = 8

// PaxosAcceptorSet picks the 2f+1 acceptor membership of a flat tree:
// the coordinator and its first two subordinates (f=1) when it has at
// least two, otherwise the coordinator alone (f=0 — a two-node tree
// has no third node to colocate an acceptor on).
func PaxosAcceptorSet(coord string, subs []string) []string {
	if len(subs) < 2 {
		return []string{coord}
	}
	return []string{coord, subs[0], subs[1]}
}

// PaxosTx is one node's Paxos Commit state for one transaction.
type PaxosTx struct {
	// Self is this node's name.
	Self string
	// Acceptors and Participants are the transaction's membership, as
	// on PaxosMeta; empty until Adopt learns them.
	Acceptors    []string
	Participants []string
	// Vote is this participant's own instance value; VoteSent records
	// that its ballot-0 accept has gone out.
	Vote     VoteValue
	VoteSent bool
	// SkipAcceptorForce and QuorumOverride plant deliberate bugs for
	// the safety oracle to convict, and are zero outside tests: the
	// acceptor acknowledges acceptances it did not force, and leaders
	// count a quorum of QuorumOverride acceptors instead of f+1.
	SkipAcceptorForce bool
	QuorumOverride    int

	promised int                  // highest ballot promised (0 = none)
	accepted []PaxosInstanceState // per participant; Ballot -1 = nothing accepted
	bundled  bool                 // the ballot-0 bundle has been emitted
	attempts int                  // recovery rounds this node has led
}

// PaxosStep is what an acceptor asks of its driver: write States at
// Ballot to the log — forced when Force — and, once written, report
// them to the ballot's leader. Take also fills in the record's Kind
// (Record builds it) and the report, Reply, addressed To the leader.
type PaxosStep struct {
	Ballot int
	States []PaxosInstanceState
	Force  bool
	Kind   string
	To     string
	Reply  PaxosMsg
}

// Vote is the wire vote of a report carrying the step's states: No if
// any of them is No.
func (s PaxosStep) Vote() VoteValue {
	for _, st := range s.States {
		if st.Vote == VoteNo {
			return VoteNo
		}
	}
	return VoteYes
}

// Adopt learns the membership from a message or record carrying it
// (an acceptor may hear an accept before its own Prepare arrives). The
// first complete membership sticks.
func (t *PaxosTx) Adopt(acceptors, participants []string) {
	if len(t.Acceptors) > 0 || len(acceptors) == 0 || len(participants) == 0 {
		return
	}
	t.Acceptors, t.Participants = acceptors, participants
	t.accepted = make([]PaxosInstanceState, len(participants))
	for i, p := range participants {
		t.accepted[i] = PaxosInstanceState{Instance: p, Ballot: -1}
	}
}

// Meta returns the membership as message metadata for ballot, with
// replies going to leader.
func (t *PaxosTx) Meta(ballot int, leader string) PaxosMeta {
	return PaxosMeta{Ballot: ballot, Leader: leader, Acceptors: t.Acceptors, Participants: t.Participants}
}

// IsAcceptor reports whether this node is one of the acceptors.
func (t *PaxosTx) IsAcceptor() bool { return indexOfName(t.Acceptors, t.Self) >= 0 }

// Others lists who hears a decision this node reaches: every other
// participant. A coordinator's are its subordinates, Participants[1:].
func (t *PaxosTx) Others() []string {
	i := indexOfName(t.Participants, t.Self)
	if i <= 0 {
		return t.Participants[i+1:]
	}
	return append(t.Participants[:i:i], t.Participants[i+1:]...)
}

// Asked learns the membership a Prepare, m, announces (Adopt) and says
// whether the participant casts its vote now: not once it has, nor
// while the membership is unknown or m carries none.
func (t *PaxosTx) Asked(m *Message) bool {
	meta, err := DecodePaxosMeta(m.Payload)
	t.Adopt(meta.Acceptors, meta.Participants)
	return err == nil && !t.VoteSent && len(t.Acceptors) > 0
}

// Cast sets this participant's own instance to its vote v, read-only
// folding to Yes (instances carry only Yes and No, and every
// participant hears phase two), and returns its ballot-0 accept, to
// send to every acceptor. ok is false once the vote has gone out, and
// while the membership is unknown: a late Prepare brings it, and the
// driver casts Vote again.
func (t *PaxosTx) Cast(v VoteValue) (accept PaxosMsg, ok bool) {
	if t.VoteSent {
		return PaxosMsg{}, false
	}
	t.Vote = yesNo(v)
	if len(t.Acceptors) == 0 {
		return PaxosMsg{}, false
	}
	t.VoteSent = true
	m := t.Meta(0, t.Participants[0])
	m.Instance = t.Self
	return PaxosMsg{Type: MsgPaxosAccept, Vote: t.Vote, Meta: m}, true
}

// Quorum is f+1 of the 2f+1 acceptors, or QuorumOverride when set.
func (t *PaxosTx) Quorum() int {
	if t.QuorumOverride > 0 {
		return t.QuorumOverride
	}
	return len(t.Acceptors)/2 + 1
}

// Ballot is the ballot of this node's attempt'th recovery round,
// attempt*N + its participant index + 1 — unique across participants
// and attempts, and above the fast path's ballot 0. ok is false past
// PaxosMaxAttempts, or when this node is no participant.
func (t *PaxosTx) Ballot(attempt int) (ballot int, ok bool) {
	idx := indexOfName(t.Participants, t.Self)
	if idx < 0 || attempt < 1 || attempt > PaxosMaxAttempts {
		return 0, false
	}
	return attempt*len(t.Participants) + idx + 1, true
}

// NextBallot is the ballot of this node's next recovery round
// (Ballot). The rounds are counted here, on the transaction, so a
// leader that runs recovery again never reuses a ballot it ran
// before, which its own acceptor, having promised it, would refuse.
// ok is false once PaxosMaxAttempts rounds have run.
func (t *PaxosTx) NextBallot() (ballot int, ok bool) {
	t.attempts++
	return t.Ballot(t.attempts)
}

// Bundled reports whether the ballot-0 bundle has been emitted.
func (t *PaxosTx) Bundled() bool { return t.bundled }

// Holds reports whether this acceptor holds any accepted value.
func (t *PaxosTx) Holds() bool {
	for _, a := range t.accepted {
		if a.Ballot >= 0 {
			return true
		}
	}
	return false
}

// Accept is the acceptor's accept rule for instance inst's value v at
// ballot. A ballot below the promise, or below what the instance
// already accepted, is refused silently. Ballot-0 accepts accumulate
// and become one step — the bundle of every instance, emitted once —
// when the last instance reports. A recovery-ballot accept raises the
// promise and is its own step. The step is forced unless
// SkipAcceptorForce: an acceptor that forgets what it acknowledged
// lets two recovery leaders learn different outcomes.
func (t *PaxosTx) Accept(ballot int, inst string, v VoteValue) (PaxosStep, bool) {
	i := indexOfName(t.Participants, inst)
	if !t.IsAcceptor() || ballot < t.promised || i < 0 || t.accepted[i].Ballot > ballot {
		return PaxosStep{}, false
	}
	t.accepted[i] = PaxosInstanceState{Instance: inst, Ballot: ballot, Vote: yesNo(v)}
	if ballot == 0 {
		if t.bundled || !t.complete() {
			return PaxosStep{}, false
		}
		t.bundled = true
		return PaxosStep{States: t.States(), Force: !t.SkipAcceptorForce}, true
	}
	t.promised = ballot
	return PaxosStep{Ballot: ballot, States: []PaxosInstanceState{t.accepted[i]}, Force: !t.SkipAcceptorForce}, true
}

// Promise is the acceptor's promise rule: refuse a ballot not above the
// promise; otherwise promise it and report the accepted states. Ballot-0
// accepts not yet bundled were never acknowledged, so they are dropped,
// as if lost in flight. The step is always forced.
func (t *PaxosTx) Promise(ballot int) (PaxosStep, bool) {
	if !t.IsAcceptor() || ballot <= t.promised {
		return PaxosStep{}, false
	}
	t.promised = ballot
	if !t.bundled {
		for i := range t.accepted {
			if t.accepted[i].Ballot == 0 {
				t.accepted[i].Ballot = -1
			}
		}
	}
	return PaxosStep{Ballot: ballot, States: t.States(), Force: true}, true
}

// Take is the acceptor's step for m, a PaxosAccept (Accept) or a
// PaxosQuery (Promise), once the membership m carries is learned
// (Adopt). The step comes with its record's kind, PaxAccept or
// PaxPromise, and its report, a PaxosAccepted or a PaxosPromise,
// addressed to the ballot's leader.
func (t *PaxosTx) Take(m PaxosMsg) (step PaxosStep, ok bool) {
	t.Adopt(m.Meta.Acceptors, m.Meta.Participants)
	kind, reply := RecPaxPromise, MsgPaxosPromise
	if m.Type == MsgPaxosAccept {
		kind, reply = RecPaxAccept, MsgPaxosAccepted
		step, ok = t.Accept(m.Meta.Ballot, m.Meta.Instance, m.Vote)
	} else {
		step, ok = t.Promise(m.Meta.Ballot)
	}
	if !ok {
		return step, false
	}
	step.Kind, step.To = kind, m.Meta.Leader
	step.Reply = PaxosMsg{Type: reply, Meta: t.Meta(step.Ballot, step.To)}
	step.Reply.Meta.States = step.States
	if reply == MsgPaxosAccepted {
		step.Reply.Vote = step.Vote()
	}
	return step, true
}

// Restore folds one durable acceptor record back in at restart: a
// PaxAccept record (accept) or a PaxPromise record at ballot, with the
// states it carries. The ballot is a promise floor, each instance
// keeps its highest-ballot value, and a ballot-0 PaxAccept record is
// the bundle. Call Adopt first.
func (t *PaxosTx) Restore(accept bool, ballot int, states []PaxosInstanceState) {
	if ballot > t.promised {
		t.promised = ballot
	}
	if accept && ballot == 0 {
		t.bundled = true
	}
	for _, s := range states {
		i := indexOfName(t.Participants, s.Instance)
		if i >= 0 && s.Ballot >= t.accepted[i].Ballot {
			t.accepted[i] = PaxosInstanceState{Instance: s.Instance, Ballot: s.Ballot, Vote: yesNo(s.Vote)}
		}
	}
}

// States lists the accepted values in instance order.
func (t *PaxosTx) States() []PaxosInstanceState {
	var out []PaxosInstanceState
	for _, a := range t.accepted {
		if a.Ballot >= 0 {
			out = append(out, a)
		}
	}
	return out
}

func (t *PaxosTx) complete() bool {
	for _, a := range t.accepted {
		if a.Ballot < 0 {
			return false
		}
	}
	return true
}

// PaxosRound is a leader's tally for one ballot. Ballot 0 is the
// coordinator's fast path: its values are the participants' own votes,
// so it has no promise phase. A recovery ballot first collects
// promises, then proposes, then collects acceptances.
type PaxosRound struct {
	Ballot   int
	tx       *PaxosTx
	tally    []instanceTally // per instance
	promised uint64          // acceptors that promised Ballot
	reports  []PaxosInstanceState
	proposed bool
}

// instanceTally is a round's count for one instance: the acceptors
// (bit = acceptor index) that accepted at the round's ballot, and the
// value accepted or proposed at it.
type instanceTally struct {
	acks  uint64
	value VoteValue
}

// NewRound starts this node's tally for ballot.
func (t *PaxosTx) NewRound(ballot int) *PaxosRound {
	return &PaxosRound{
		Ballot:   ballot,
		tx:       t,
		tally:    make([]instanceTally, len(t.Participants)),
		proposed: ballot == 0,
	}
}

// Ack counts acceptor from's report of states accepted at ballot.
// Once every instance has a quorum it returns the decision: commit
// unless some instance's value is No. Reports for another ballot, or
// from a non-acceptor, are ignored.
func (r *PaxosRound) Ack(from string, ballot int, states []PaxosInstanceState) (commit, decided bool) {
	a := indexOfName(r.tx.Acceptors, from)
	if ballot != r.Ballot || a < 0 || a >= 64 || len(r.tally) == 0 {
		return false, false
	}
	for _, s := range states {
		if i := indexOfName(r.tx.Participants, s.Instance); i >= 0 {
			r.tally[i].acks |= 1 << a
			r.tally[i].value = yesNo(s.Vote)
		}
	}
	q := r.tx.Quorum()
	commit = true
	for _, in := range r.tally {
		if bits.OnesCount64(in.acks) < q {
			return false, false
		}
		if in.value == VoteNo {
			commit = false
		}
	}
	return commit, true
}

// Promise counts acceptor from's promise of ballot with the states it
// reported. When a quorum has promised it returns the proposal, once:
// each instance takes the value of the highest ballot any promise
// reported (a value that may have been chosen must be re-proposed); an
// instance nobody reported is free and defaults to No — except this
// node's own, whose vote it knows.
func (r *PaxosRound) Promise(from string, ballot int, states []PaxosInstanceState) []PaxosInstanceState {
	a := indexOfName(r.tx.Acceptors, from)
	if r.proposed || ballot != r.Ballot || a < 0 || a >= 64 || r.promised&(1<<a) != 0 {
		return nil
	}
	r.promised |= 1 << a
	r.reports = append(r.reports, states...)
	if bits.OnesCount64(r.promised) < r.tx.Quorum() {
		return nil
	}
	r.proposed = true
	prop := make([]PaxosInstanceState, len(r.tx.Participants))
	for i, p := range r.tx.Participants {
		v, best := VoteNo, -1
		if p == r.tx.Self {
			v = yesNo(r.tx.Vote)
		}
		for _, s := range r.reports {
			if s.Instance == p && s.Ballot > best {
				v, best = yesNo(s.Vote), s.Ballot
			}
		}
		r.tally[i].value = v
		prop[i] = PaxosInstanceState{Instance: p, Ballot: r.Ballot, Vote: v}
	}
	return prop
}

// yesNo folds a vote onto the two values an instance carries.
func yesNo(v VoteValue) VoteValue {
	if v == VoteNo {
		return VoteNo
	}
	return VoteYes
}

func indexOfName(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}
