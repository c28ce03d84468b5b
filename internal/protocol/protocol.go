// Package protocol defines the wire-level vocabulary of the commit
// protocols: typed messages, and packets that may carry several
// messages at once. It also holds what both engines share beyond the
// wire: the variants' rules (classic.go, paxoscommit.go) and the
// transaction manager's log records and restart fold (txlog.go).
//
// The packet/message distinction matters for the paper's accounting:
// most optimizations reduce *flows* (protocol messages), but Long
// Locks and implied acknowledgments work by piggybacking a message on
// a packet that travels anyway — the message still exists, the wire
// packet does not. Metrics count both.
package protocol

import (
	"fmt"
	"time"
)

// MsgType enumerates the protocol messages.
type MsgType int

// Protocol message types. MsgData is application data; everything
// else belongs to commit or recovery processing.
const (
	MsgData MsgType = iota
	MsgPrepare
	MsgVote
	MsgCommit
	MsgAbort
	MsgAck
	MsgInquire // recovery: "what happened to tx?"
	MsgOutcome // recovery reply

	// Paxos Commit (Gray & Lamport): each participant's vote is one
	// Paxos instance replicated across 2f+1 acceptors, so the commit
	// decision survives a coordinator crash without a blocking window.
	MsgPaxosAccept   // leader phase 2a: "accept this vote for instance Tx/participant"
	MsgPaxosAccepted // acceptor phase 2b: "accepted, durably"
	MsgPaxosQuery    // recovery leader phase 1a: "promise ballot b; report accepted state"
	MsgPaxosPromise  // acceptor phase 1b: promise plus prior accepted values
)

var msgNames = map[MsgType]string{
	MsgData:          "Data",
	MsgPrepare:       "Prepare",
	MsgVote:          "Vote",
	MsgCommit:        "Commit",
	MsgAbort:         "Abort",
	MsgAck:           "Ack",
	MsgInquire:       "Inquire",
	MsgOutcome:       "Outcome",
	MsgPaxosAccept:   "PaxosAccept",
	MsgPaxosAccepted: "PaxosAccepted",
	MsgPaxosQuery:    "PaxosQuery",
	MsgPaxosPromise:  "PaxosPromise",
}

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// VoteValue is a participant's reply to Prepare: the vote a resource
// returns in its PrepareResult and a MsgVote carries.
type VoteValue int

// Vote values. ReadOnly means commit and abort are indistinguishable
// for the voter, which drops out of phase two (§4 Read Only).
const (
	VoteYes VoteValue = iota
	VoteNo
	VoteReadOnly
)

// String returns the wire name of the vote.
func (v VoteValue) String() string {
	switch v {
	case VoteYes:
		return "VoteYes"
	case VoteNo:
		return "VoteNo"
	case VoteReadOnly:
		return "VoteReadOnly"
	default:
		return fmt.Sprintf("Vote(%d)", int(v))
	}
}

// HeuristicReport describes one heuristic decision in a subtree,
// carried upstream on acknowledgments.
type HeuristicReport struct {
	Node      string
	Committed bool
	Damage    bool
}

// OutcomeKind is the answer in a MsgOutcome.
type OutcomeKind int

// Recovery outcomes. OutcomeUnknown is the baseline protocol's
// non-answer: the coordinator has no memory of the transaction and no
// presumption applies, so the inquirer stays blocked.
const (
	OutcomeCommit OutcomeKind = iota
	OutcomeAbort
	OutcomeUnknown
	OutcomeInProgress // commit processing still running; ask again later
)

// String returns the wire name of the outcome kind.
func (o OutcomeKind) String() string {
	switch o {
	case OutcomeCommit:
		return "Commit"
	case OutcomeAbort:
		return "Abort"
	case OutcomeUnknown:
		return "Unknown"
	case OutcomeInProgress:
		return "InProgress"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Message is one protocol message. A single struct (rather than one
// type per message) keeps the wire encoding flat and mirrors how the
// LU 6.2 presentation-services headers multiplex fields.
type Message struct {
	Type MsgType
	Tx   string // transaction id, "origin:seq"

	// MsgPrepare fields.
	LongLocks bool    // coordinator asks the subordinate to piggyback its ack (§4 Long Locks)
	Presume   Variant // the coordinator's variant, announcing its recovery presumption per transaction
	Delegate  bool    // last-agent delegation: "prepare, then you decide" (§4 Last Agent)
	Repeat    bool    // a Prepare (or delegation) sent again: its coordinator heard no answer

	// MsgVote fields.
	Vote         VoteValue
	Reliable     bool // heuristic decisions vanishingly unlikely (§4 Vote Reliable)
	OKToLeaveOut bool // subordinate subtree will stay suspended (§4 Leave-Out)
	Unsolicited  bool // vote sent without a Prepare (§4 Unsolicited Vote)
	LastAgent    bool // "you decide": coordinator delegates the decision (§4 Last Agent)

	// MsgAck fields.
	Heuristics      []HeuristicReport
	RecoveryPending bool // §4 Wait For Outcome: subtree recovery continues in background

	// MsgOutcome fields.
	Outcome OutcomeKind

	// MsgData fields.
	Payload []byte
	NewTx   string // non-empty: this data begins transaction NewTx (implied ack for Tx)

	// Horizon is the sender's retransmission horizon: how long after
	// first sending a Prepare or an outcome it may still resend it. A
	// receiver keeps what it needs to answer a duplicate at least that
	// long. Carried in whole milliseconds, rounded up; zero when the
	// sender does not say.
	Horizon time.Duration
}

// Label renders the message for traces, e.g. "VoteYes+Reliable" or
// "Prepare".
func (m Message) Label() string {
	switch m.Type {
	case MsgVote:
		s := m.Vote.String()
		if m.Reliable {
			s += "+Reliable"
		}
		if m.OKToLeaveOut {
			s += "+LeaveOutOK"
		}
		if m.Unsolicited {
			s += "+Unsolicited"
		}
		if m.LastAgent {
			s += "+LastAgent"
		}
		return s
	case MsgPrepare:
		s := "Prepare"
		if m.LongLocks {
			s += "+LongLocks"
		}
		if m.Delegate {
			s += "+Delegate"
		}
		return s
	case MsgAck:
		s := "Ack"
		if len(m.Heuristics) > 0 {
			s += "+Heuristics"
		}
		if m.RecoveryPending {
			s += "+RecoveryPending"
		}
		return s
	case MsgOutcome:
		return "Outcome" + m.Outcome.String()
	case MsgPaxosAccept, MsgPaxosAccepted:
		return m.Type.String() + "+" + m.Vote.String()
	case MsgData:
		if m.NewTx != "" {
			return "Data+NewTx"
		}
		return "Data"
	default:
		return m.Type.String()
	}
}

// Packet is one wire transmission between two nodes. Messages[0] is
// the primary message; any further entries are piggybacked.
type Packet struct {
	From, To string
	Messages []Message
}

// Label summarizes the packet for traces.
func (p Packet) Label() string {
	if len(p.Messages) == 0 {
		return "(empty)"
	}
	s := p.Messages[0].Label()
	for _, m := range p.Messages[1:] {
		s += "|" + m.Label()
	}
	return s
}
