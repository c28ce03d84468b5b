package protocol

// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"),
// sequenced once for both engines. Each participant's vote is one
// Paxos instance replicated across 2f+1 acceptors colocated on the
// transaction's nodes. The coordinator is merely the initial (ballot-0)
// leader; after it crashes, any prepared participant leads a recovery
// round and learns the outcome from an acceptor quorum — no blocking
// window, at the cost of one extra message delay and the acceptor
// forces.
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
// promise quorum, the value-choice rule, then ballot-b accepts until
// every instance has an f+1 quorum.
//
// PaxosLead is the leader's sequence; PaxosTx, which it embeds, is the
// participant's and the acceptor's (paxoscommit.go). As in Coord, each
// input is one method that updates the state and returns what its
// driver then sends, writes or applies; the driver (the simulator in
// internal/core, the runtime in internal/live) owns the clock, the
// network and the log.

// PaxosMsg is a Paxos message without its transaction: its type, the
// vote it carries and its metadata, which travels as the payload.
type PaxosMsg struct {
	Type MsgType
	Vote VoteValue
	Meta PaxosMeta
}

// DecodePaxos reads m's Paxos content.
func DecodePaxos(m *Message) (PaxosMsg, error) {
	meta, err := DecodePaxosMeta(m.Payload)
	return PaxosMsg{Type: m.Type, Vote: m.Vote, Meta: meta}, err
}

// Message is m on the wire, for tx.
func (m PaxosMsg) Message(tx string) Message {
	return Message{Type: m.Type, Tx: tx, Vote: m.Vote, Payload: m.Meta.Encode()}
}

// Answer is how a node that knows tx's outcome answers m, Paxos traffic
// from from: the outcome, to the ballot's leader, else to from, and
// never to itself (ok false).
func (m PaxosMsg) Answer(self, from, tx string, commit bool) (to string, reply Message, ok bool) {
	to = m.Meta.Leader
	if to == "" || to == self {
		to = from
	}
	reply = Message{Type: MsgOutcome, Tx: tx, Outcome: OutcomeAbort}
	if commit {
		reply.Outcome = OutcomeCommit
	}
	return to, reply, to != self
}

// PaxosLead is one node's part in one Paxos Commit transaction: its
// participant and acceptor state, and the ballot it leads, if any.
// Every participant may lead: the coordinator from Begin, any node from
// Timeout.
type PaxosLead struct {
	PaxosTx
	round *PaxosRound // the ballot this node leads; nil while it leads none
}

// NewPaxosLead is node self's state in a new transaction, with the
// bugs h plants.
func NewPaxosLead(self string, h TestHooks) *PaxosLead {
	return &PaxosLead{PaxosTx: PaxosTx{Self: self, SkipAcceptorForce: h.SkipAcceptorForce, QuorumOverride: h.QuorumOverride}}
}

// PaxosNext is what a leader's input asks of its driver, in order: send
// each of Propose to every acceptor, then, when Decided, apply the
// outcome and tell it to Others.
type PaxosNext struct {
	Propose         []PaxosMsg
	Decided, Commit bool
}

// Begin starts the coordinator's ballot-0 round over subs, with the
// acceptors PaxosAcceptorSet picks, and returns the Prepare for tx that
// announces the membership to each of subs. The coordinator's own vote
// follows them (Cast).
func (l *PaxosLead) Begin(tx string, subs []string) Message {
	l.Adopt(PaxosAcceptorSet(l.Self, subs), append([]string{l.Self}, subs...))
	l.round = l.NewRound(0)
	return Message{Type: MsgPrepare, Tx: tx, Presume: VariantPaxos, Payload: l.Meta(0, l.Self).Encode()}
}

// Timeout is the leader's timer: the fast path, or the ballot it leads,
// is overdue. It starts this node's next recovery ballot (NextBallot)
// and returns the query to send to every acceptor; ok is false once
// PaxosMaxAttempts ballots have run, leaving the transaction to an
// operator. Call it only once the membership is known.
func (l *PaxosLead) Timeout() (query PaxosMsg, ok bool) {
	b, ok := l.NextBallot()
	if !ok {
		return PaxosMsg{}, false
	}
	l.round = l.NewRound(b)
	return PaxosMsg{Type: MsgPaxosQuery, Meta: l.Meta(b, l.Self)}, true
}

// Reply takes an acceptor's reply m, from from, to the ballot this node
// leads. A PaxosAccepted is tallied: once every instance has a quorum
// it returns the decision, and again for each later acceptance. A
// PaxosPromise is counted: at a promise quorum it returns the proposal,
// once — one ballot-b accept per instance, with the value the
// value-choice rule picks (PaxosRound.Promise). Replies for another
// ballot, from a non-acceptor, or while no ballot is led are ignored.
func (l *PaxosLead) Reply(from string, m PaxosMsg) (next PaxosNext) {
	r := l.round
	switch {
	case r == nil:
	case m.Type == MsgPaxosAccepted:
		next.Commit, next.Decided = r.Ack(from, m.Meta.Ballot, m.Meta.States)
	case m.Type == MsgPaxosPromise:
		for _, s := range r.Promise(from, m.Meta.Ballot, m.Meta.States) {
			a := l.Meta(s.Ballot, l.Self)
			a.Instance = s.Instance
			next.Propose = append(next.Propose, PaxosMsg{Type: MsgPaxosAccept, Vote: s.Vote, Meta: a})
		}
	}
	return next
}
