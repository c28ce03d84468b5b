package protocol

import "slices"

// One classic coordinator's part in one transaction (Basic 2PC, PA, PN,
// PC, 1PC), sequenced once for both engines: the pre-prepare record,
// the votes, a delegation to the last agent, the decision and its
// record, the outcome to those that hear it, and the acks — Gray &
// Lamport's transaction manager. As in Sub, each input is one method
// that updates the state and returns what its driver then writes or
// sends. A cascaded subordinate tallies its subtree with one too.

// Coord is one coordinator's state in one transaction.
type Coord struct {
	Variant Variant
	// Subs are the subordinates, in the order Prepares go out: the
	// caller's slice, read until the acks are in.
	Subs []string
	// Heuristics are the reports the acks carried (Ack).
	Heuristics []HeuristicReport

	m     []member // one per Subs entry; counts are taken from it, keeping a Coord small
	redos [][]byte // a logless yes-voter's redo, one per Subs entry
	agent int      // 1 + the index in Subs of the agent held out of phase one; 0 for none

	// Logged: the driver forced a record before deciding (pre-prepare
	// or delegation), so an abort is written too (Decide).
	Logged bool
	// OnePhaseLazyDecision is TestHooks' injected bug: Decide writes a
	// logless round's commit record lazily.
	OnePhaseLazyDecision bool

	no, asked, local, localYes, delegated, answered bool
}

// member is what a coordinator holds of one subordinate: in mVote its
// vote plus one (0 while none is in), and whether its ack is owed and in.
type member uint8

const (
	mVote  member = 3
	mYes          = member(VoteYes) + 1
	mOwes  member = 4
	mAcked member = 8
)

// Next is what a round asks of its driver once an input is taken.
type Next uint8

// The four answers.
const (
	NextCollect  Next = iota // a vote, or the coordinator's own, is still owed
	NextAbort                // a no is in
	NextDelegate             // every vote is yes or read-only and an agent is held out
	NextCommit               // every vote is yes or read-only
)

// Decided is a decision with what its record names (the yes-voters in
// Subs order and, with Redo, their redos), how many hear it, and
// whether the agent that took it is acked once the record is written.
type Decided struct {
	Decision
	Yes      []string
	Redos    [][]byte
	Told     int
	AckAgent bool
}

// Begin starts the round under v over subs, holding agent ("" for
// none) out of phase one when v delegates. It returns the pre-prepare
// record to force before the first Prepare, naming subs (Kind "" for
// none: PrePrepare). Logged and the hook stay as set.
func (c *Coord) Begin(v Variant, subs []string, agent string) LogRecord {
	*c = Coord{Variant: v, Subs: subs, Logged: c.Logged, OnePhaseLazyDecision: c.OnePhaseLazyDecision,
		m: make([]member, len(subs))}
	if v.row().loglessVote && len(subs) > 0 {
		c.redos = make([][]byte, len(subs))
	}
	if agent != "" && v.Delegates() {
		c.agent = slices.Index(subs, agent) + 1
	}
	return LogRecord{Kind: v.PrePrepare(), Subs: subs}
}

// Reinstate brings a round back from a restart's record: subs, taken
// as yes-voters (any may be prepared) but for agent, which holds the
// delegation ("" for none). Its own vote counts as yes.
func (c *Coord) Reinstate(v Variant, subs []string, agent string) {
	if agent != "" {
		subs = append(slices.DeleteFunc(slices.Clone(subs), func(s string) bool { return s == agent }), agent)
	}
	c.Begin(v, subs, agent)
	c.asked, c.local, c.localYes, c.delegated = true, true, true, agent != ""
	for i := range c.m {
		if i+1 != c.agent {
			c.m[i] = mYes
		}
	}
}

// Ask opens phase one: the Prepares leave, so from here any subordinate
// may be prepared, and an abort counts as voted.
func (c *Coord) Ask() { c.asked = true }

// Asked reports whether phase one is open (Ask, or Reinstate).
func (c *Coord) Asked() bool { return c.asked }

// Silent reports whether member i's vote is still owed: a Prepare, or
// its resend, goes to it. The agent is never asked; it is delegated to.
func (c *Coord) Silent(i int) bool { return c.m[i]&mVote == 0 && i+1 != c.agent }

// Pending counts the votes still owed.
func (c *Coord) Pending() int { return c.count(mVote, 0) - min(c.agent, 1) }

// Vote takes m, a reply from from: each member's first vote counts
// (an unknown value as no), with a logless voter's redo (Payload)
// kept beside it; the agent's, a duplicate or a stranger's do not.
func (c *Coord) Vote(from string, m *Message) Next {
	if i := slices.Index(c.Subs, from); m.Type == MsgVote && i >= 0 && c.Silent(i) {
		v := m.Vote
		if v != VoteYes && v != VoteReadOnly {
			v = VoteNo
		}
		c.m[i] |= member(v) + 1
		c.no = c.no || v == VoteNo
		if v == VoteYes && c.redos != nil {
			c.redos[i] = m.Payload
		}
	}
	return c.Next()
}

// Local takes the coordinator's own vote: its resources' fold.
func (c *Coord) Local(v VoteValue) Next {
	c.local, c.localYes = true, v == VoteYes
	c.no = c.no || v == VoteNo
	return c.Next()
}

// readOnly says no vote, the coordinator's own included, is yes.
func (c *Coord) readOnly() bool { return !c.localYes && c.count(mVote, mYes) == 0 }

// Next says what the round asks for with the inputs taken so far.
func (c *Coord) Next() Next {
	switch {
	case c.no:
		return NextAbort
	case !c.local || c.Pending() > 0:
		return NextCollect
	case c.agent > 0 && !c.delegated:
		return NextDelegate
	}
	return NextCommit
}

// Fold is the round's vote, for a subordinate to cast upstream: no if
// any vote is, read-only if every one is, else yes.
func (c *Coord) Fold() VoteValue {
	switch {
	case c.no:
		return VoteNo
	case c.readOnly():
		return VoteReadOnly
	}
	return VoteYes
}

// Agent is the subordinate held out of phase one ("" for none).
func (c *Coord) Agent() string {
	if c.agent == 0 {
		return ""
	}
	return c.Subs[c.agent-1]
}

// Delegate hands the decision to the agent (§4 Last Agent) and returns
// the record to force first, naming it and the yes-voters; none (Kind
// "") when every vote is read-only, as nothing needs recovering.
func (c *Coord) Delegate() LogRecord {
	c.delegated = true
	if c.readOnly() {
		return LogRecord{}
	}
	return LogRecord{Kind: RecPrepared, Presume: c.Variant, Agent: c.Agent(), Subs: c.Voters()}
}

// Delegated reports whether the decision is the agent's (Delegate, or
// Reinstate naming one).
func (c *Coord) Delegated() bool { return c.delegated }

// Answer takes m, a reply from from, as the agent's decision: ok says
// it is one, an outcome from the agent holding the delegation.
func (c *Coord) Answer(from string, m *Message) (commit, ok bool) {
	commit, ok = OutcomeOf(m)
	c.answered = ok && c.delegated && from == c.Agent()
	return commit, c.answered
}

// Decide takes the decision as its owner (a root, a last agent, or a
// delegating coordinator its agent answered) by Variant.Decide, and
// marks who hears it (Tells) and whose ack is owed. A cascaded
// subordinate decides the outcome it received, for its subtree.
func (c *Coord) Decide(commit bool) Decided {
	d := Decided{Decision: c.Variant.Decide(commit, Round{ReadOnly: c.readOnly(), Logged: c.Logged,
		Voted: c.asked || c.no || c.count(mVote, 0) < len(c.m)})}
	if d.Write == Forced && d.Redo && c.OnePhaseLazyDecision {
		d.Write = Lazy
	}
	d.Yes, d.AckAgent = c.Voters(), c.answered && d.Acked
	if d.Redo {
		n := 0
		for i := range c.m {
			if c.m[i]&mVote == mYes {
				c.redos[n] = c.redos[i]
				n++
			}
		}
		d.Redos = c.redos[:n]
	}
	acks := c.Variant.Acks(commit)
	for i := range c.m {
		c.m[i] &= mVote
		if c.Tells(i) {
			d.Told++
			if acks {
				c.m[i] |= mOwes
			}
		}
	}
	return d
}

// Tells reports whether member i hears the decided outcome: every
// member but a read-only voter (HearsOutcome) and an agent that took
// the decision. The simulator also leaves out the no-voters and an
// agent it never delegated to, which hold nothing.
func (c *Coord) Tells(i int) bool {
	v, voted := c.VoteOf(i)
	return HearsOutcome(v, voted) && (i+1 != c.agent || !c.delegated)
}

// VoteOf returns member i's vote, if it is in.
func (c *Coord) VoteOf(i int) (v VoteValue, voted bool) {
	if m := c.m[i] & mVote; m != 0 {
		return VoteValue(m - 1), true
	}
	return VoteNo, false
}

// Ack takes m, a reply from from: an ack's heuristic reports are kept
// whoever sent it; it counts, and Ack says so, when from owes one.
func (c *Coord) Ack(from string, m *Message) bool {
	if m.Type != MsgAck {
		return false
	}
	c.Heuristics = append(c.Heuristics, m.Heuristics...)
	i := slices.Index(c.Subs, from)
	if i < 0 || !c.Owes(i) {
		return false
	}
	c.m[i] |= mAcked
	return true
}

// Owes reports whether member i's ack is owed and not in.
func (c *Coord) Owes(i int) bool { return c.m[i]&(mOwes|mAcked) == mOwes }

// Owed counts the acks owed and not in.
func (c *Coord) Owed() int { return c.count(mOwes|mAcked, mOwes) }

// Waive stops waiting for member i's ack: it is implied (§4 Vote
// Reliable), or its driver gave up on it.
func (c *Coord) Waive(i int) { c.m[i] &^= mOwes }

// Voters lists the yes-voters in Subs order.
func (c *Coord) Voters() []string { return c.names(mVote, mYes) }

// Missing lists, in a new slice, the members whose ack is owed and not
// in; nil when none is.
func (c *Coord) Missing() []string {
	if c.Owed() == 0 {
		return nil
	}
	return c.names(mOwes|mAcked, mOwes)
}

// count counts the members whose state masked by mask is want.
func (c *Coord) count(mask, want member) int {
	n := 0
	for _, m := range c.m {
		if m&mask == want {
			n++
		}
	}
	return n
}

// names lists the members whose state masked by mask is want.
func (c *Coord) names(mask, want member) []string {
	out := make([]string, 0, c.count(mask, want))
	for i, s := range c.Subs {
		if c.m[i]&mask == want {
			out = append(out, s)
		}
	}
	return out
}
