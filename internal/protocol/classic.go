package protocol

// The classic rounds' rules — what Basic 2PC, PA, PN, PC and 1PC write,
// force, acknowledge and answer (the paper's Tables 2-3, §4's last
// agent) — decided once for both engines. As in paxoscommit.go, no rule
// has a clock, a network or a log, or asks which engine calls it. Where
// Paxos Commit shares a path with the classic rounds, its row answers.

// variantRow is one variant's row of the table the rules read.
type variantRow struct {
	name                string      // the paper's abbreviation: /varz, the cost ledger, the audit
	presumeName         string      // names the variant in a Prepared payload; on disk, never changes
	prePrepare          string      // the record kind forced before the first Prepare ("" for none)
	noInfo              OutcomeKind // the presumption: the answer when nothing is known
	ackCommit, ackAbort bool        // subordinates acknowledge the outcome (and force Aborted iff ackAbort)
	subForcesCommitted  bool        // a subordinate forces its Committed record
	propagateHeuristics bool        // heuristic reports ride the acks to the root
	loglessVote         bool        // a leaf's vote is durable in the coordinator's decision record (1PC)
	aliases             []string    // further names ParseVariant accepts
}

var variantTable = [...]variantRow{
	VariantBaseline: {name: "Basic2PC", presumeName: "PresumeNothing", noInfo: OutcomeUnknown,
		ackCommit: true, ackAbort: true, subForcesCommitted: true,
		aliases: []string{"basic", "baseline", "2pc"}},
	VariantPA: {name: "PA", presumeName: "PresumeAbort", noInfo: OutcomeAbort,
		ackCommit: true, subForcesCommitted: true},
	VariantPN: {name: "PN", presumeName: "PresumePending", prePrepare: RecPending, noInfo: OutcomeInProgress,
		ackCommit: true, ackAbort: true, subForcesCommitted: true, propagateHeuristics: true},
	VariantPC: {name: "PC", presumeName: "PresumeCommit", prePrepare: RecCollecting, noInfo: OutcomeCommit,
		ackAbort: true},
	VariantPaxos: {name: "PaxosCommit", presumeName: "PresumePaxos", noInfo: OutcomeUnknown,
		aliases: []string{"paxos"}},
	Variant1PC: {name: "1PC", presumeName: "Presume1PC", noInfo: OutcomeAbort,
		ackCommit: true, loglessVote: true, aliases: []string{"onephase"}},
}

// Write is how a rule asks for a log record.
type Write uint8

// The three answers a record rule gives.
const (
	NoWrite Write = iota
	Lazy          // appended; its loss costs only recovery work
	Forced        // forced before the step it guards
)

// PrePrepare is the record kind a coordinator forces before its first
// Prepare, naming its subordinates ("" for none): PN's Pending record
// lets it always drive recovery, PC's Collecting record makes
// presuming commit safe.
func (v Variant) PrePrepare() string { return v.row().prePrepare }

// Prepare is what a subordinate forces before it votes yes.
type Prepare struct {
	// AgentPending is PN's record of the coordinator, for heuristic
	// reports after a crash. The runtime's Prepared payload stands for
	// it (analytic.PNLive): the one record only the simulator writes.
	AgentPending bool
	// Prepared is false for a logless leaf, whose yes vote carries its
	// redo; the coordinator's decision record is its durability.
	Prepared bool
}

// SubPrepare is a yes-voter's prepare rule; leaf says it asked nobody
// else to prepare.
func (v Variant) SubPrepare(leaf bool) Prepare {
	r := v.row()
	return Prepare{AgentPending: r.propagateHeuristics, Prepared: !(r.loglessVote && leaf)}
}

// Delegates reports whether a coordinator may hand its decision to a
// last agent: not when the votes are logless, whose durability is the
// coordinator's own decision record.
func (v Variant) Delegates() bool { return !v.row().loglessVote }

// Unsolicited reports whether a subordinate may vote before any
// Prepare reaches it, with its reply to the last work request (§4
// Unsolicited Vote). Only a classic round whose coordinator forces
// nothing before a subordinate may prepare allows it: Basic 2PC and
// PA. PN's Pending and PC's Collecting record must be stable before
// anyone prepares, a 1PC vote carries its voter's redo, and a Paxos
// Commit vote is a ballot-0 accept sent to the acceptors.
func (v Variant) Unsolicited() bool {
	r := v.row()
	return v.valid() && v != VariantPaxos && r.prePrepare == "" && !r.loglessVote
}

// AbortsRepeat says whether a last agent answers abort to a repeated
// delegation that finds no decision, rather than deciding afresh. Under
// presumed abort its abort wrote nothing (Decide), so a restart may have
// erased it, while a commit it wrote is held until the coordinator acks
// it. Elsewhere every decision is written, so none was taken.
func (v Variant) AbortsRepeat() bool { return v.row().noInfo == OutcomeAbort }

// Round is what a decision owner knows when it decides: a root
// coordinator, a last agent, or a delegating coordinator its agent
// answered.
type Round struct {
	ReadOnly bool // every vote, its own included, was read-only
	Logged   bool // it already forced a record: pre-prepare or delegation
	Voted    bool // a vote came in: a yes (the voter may be prepared) or a no (or a deadline)
}

// Decision is the record a decision owner writes. Acked: the outcome
// is acknowledged, so the record names the ackers and the owner holds
// the decision until they are in; a last agent's acker is the
// coordinator that delegated to it. Redo: the record embeds the logless
// voters' redo (OnePhaseMeta), their only durable state. Early: the
// owner answers its caller once the record is written and the outcome
// sent, and collects the acks in the background: they only let it
// forget (End), and carry nothing the caller is told.
type Decision struct {
	Write              Write
	Acked, Redo, Early bool
}

// Decide is the decision owner's record rule. A commit is forced unless
// the round was read-only (nothing to record) or Paxos Commit's
// acceptor quorum is the durable decision (lazy). Its owner answers
// before the acks (Early) unless they carry heuristic reports to the
// root (PN): Basic 2PC, PA and 1PC commits are acked only so that the
// owner may forget, as the paper prices them. An abort under
// presumed abort (PA, 1PC) writes nothing, the absence of information
// answering abort — unless the owner forced a record (its delegation
// record: presumed abort has no pre-prepare record), which a restart
// would read as in doubt: then it is forced. Otherwise an abort is
// recorded once anything can depend on it — a forced record or a vote
// — and forced exactly when aborts are acknowledged.
func (v Variant) Decide(commit bool, rd Round) Decision {
	r := v.row()
	if commit {
		d := Decision{Write: Forced, Acked: r.ackCommit, Redo: r.loglessVote,
			Early: r.ackCommit && !r.propagateHeuristics}
		switch {
		case rd.ReadOnly:
			d.Write = NoWrite
		case v == VariantPaxos:
			d.Write = Lazy
		}
		return d
	}
	d := Decision{Acked: r.ackAbort}
	switch {
	case r.noInfo == OutcomeAbort && rd.Logged:
		d.Write = Forced
	case r.noInfo == OutcomeAbort || !(rd.Logged || rd.Voted):
	case r.ackAbort:
		d.Write = Forced
	default:
		d.Write = Lazy
	}
	return d
}

// Applied is a subordinate's rule for an outcome it applies; a
// duplicate is re-acked by the same rule, live or after a restart.
type Applied struct {
	Write Write
	Ack   bool
}

// Apply is a subordinate's outcome rule; logged says it holds a
// prepared state, announced that a Prepare announced the variant. A
// commit is recorded — forced unless the presumption (PC) or the
// coordinator's decision record (1PC) stands for it — and acked when
// commits are. An abort is recorded, forced exactly when aborts are
// acknowledged, unless there is nothing to undo. One no Prepare reached
// (the abort overtook it, or the node forgot) cannot know whether its
// coordinator acknowledges aborts, so it acks whatever the variant.
func (v Variant) Apply(commit, logged, announced bool) Applied {
	r := v.row()
	switch {
	case commit && r.subForcesCommitted:
		return Applied{Write: Forced, Ack: r.ackCommit}
	case commit:
		return Applied{Write: Lazy, Ack: r.ackCommit}
	case announced && !logged:
		return Applied{Ack: r.ackAbort}
	case r.ackAbort:
		return Applied{Write: Forced, Ack: true}
	}
	return Applied{Write: Lazy, Ack: !announced}
}

// Acks reports whether the outcome is acknowledged: Decide's Acked, and
// Apply's Ack for a subordinate that prepared under an announced variant.
func (v Variant) Acks(commit bool) bool {
	if commit {
		return v.row().ackCommit
	}
	return v.row().ackAbort
}

// HeuristicsToRoot says whether heuristic reports ride the acks to the
// root (PN) rather than stopping at the immediate coordinator and the
// operator (as in R*).
func (v Variant) HeuristicsToRoot() bool { return v.row().propagateHeuristics }

// Knowledge is what an inquired node holds about a transaction.
type Knowledge uint8

// What an inquiry can find.
const (
	KnowsNothing   Knowledge = iota
	KnowsUndecided           // live here, not decided yet
	KnowsCommit
	KnowsAbort
)

// Answer is the inquiry rule. A known outcome answers itself; a live,
// undecided transaction InProgress, since a presumption would race its
// decision (a delegating coordinator's agent may still be deciding).
// With no information the presumption answers: the one the inquiry
// announces, or for none (the zero byte) the node's own. Presumed abort
// makes the logless voter safe (a commit's forced record would still be
// there); presumed commit holds because the collecting record precedes
// every Prepare. Baseline and Paxos presume nothing, PN "in progress".
func Answer(k Knowledge, asked, own Variant) OutcomeKind {
	switch k {
	case KnowsCommit:
		return OutcomeCommit
	case KnowsAbort:
		return OutcomeAbort
	case KnowsUndecided:
		return OutcomeInProgress
	}
	if asked == VariantBaseline {
		asked = own
	}
	return asked.row().noInfo
}

// OutcomeMessage is the Commit or Abort message for tx.
func OutcomeMessage(tx string, commit bool) Message {
	if commit {
		return Message{Type: MsgCommit, Tx: tx}
	}
	return Message{Type: MsgAbort, Tx: tx}
}

// VariantByPrePrepare maps a pre-prepare record kind to its variant.
func VariantByPrePrepare(kind string) (v Variant, ok bool) {
	for i, r := range variantTable {
		if kind != "" && kind == r.prePrepare {
			return Variant(i), true
		}
	}
	return VariantBaseline, false
}
