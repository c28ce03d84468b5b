package protocol

import (
	"reflect"
	"testing"
)

// coordRow is one variant's coordinator row, written out from DESIGN
// §3 and the paper's Tables 2-3 rather than from the rulebook: the
// record forced before the first Prepare, the commit record and
// whether commits are acked (and the caller answered before the acks),
// the abort record once votes may be out — with nothing forced before
// it, and after a forced pre-prepare or delegation record — and whether
// aborts are acked.
type coordRow struct {
	v                   Variant
	prePrepare          string
	ackCommit, early    bool
	abortWrite          Write // once Prepares left, nothing forced before
	loggedAbort         Write // after a forced pre-prepare or delegation record
	ackAbort, delegates bool
}

var coordRows = []coordRow{
	{v: VariantBaseline, ackCommit: true, early: true, abortWrite: Forced, loggedAbort: Forced, ackAbort: true, delegates: true},
	{v: VariantPA, ackCommit: true, early: true, abortWrite: NoWrite, loggedAbort: Forced, delegates: true},
	{v: VariantPN, prePrepare: RecPending, ackCommit: true, abortWrite: Forced, loggedAbort: Forced, ackAbort: true, delegates: true},
	{v: VariantPC, prePrepare: RecCollecting, abortWrite: Forced, loggedAbort: Forced, ackAbort: true, delegates: true},
	{v: Variant1PC, ackCommit: true, early: true, abortWrite: NoWrite, loggedAbort: Forced},
}

func vote(v VoteValue) *Message { return &Message{Type: MsgVote, Tx: "t", Vote: v} }

// told lists the members Tells names.
func told(c *Coord) []string {
	var out []string
	for i, s := range c.Subs {
		if c.Tells(i) {
			out = append(out, s)
		}
	}
	return out
}

// TestCoordRound walks every classic variant through each input a
// coordinator meets, in each state it can meet it in.
func TestCoordRound(t *testing.T) {
	for _, r := range coordRows {
		v := r.v
		t.Run(v.String(), func(t *testing.T) {
			// Begin names the pre-prepare record and its members.
			var c Coord
			subs := []string{"A", "B", "C"}
			if pre := c.Begin(v, subs, ""); pre.Kind != r.prePrepare || !reflect.DeepEqual(pre.Subs, subs) {
				t.Errorf("pre-prepare record %+v, want kind %q naming %v", pre, r.prePrepare, subs)
			}
			// A volunteer's vote, then Prepares to the rest only.
			if next := c.Vote("B", &Message{Type: MsgVote, Vote: VoteYes, Unsolicited: true}); next != NextCollect {
				t.Errorf("volunteered yes = %v, want NextCollect", next)
			}
			c.Ask()
			if !c.Silent(0) || c.Silent(1) || !c.Silent(2) || c.Pending() != 2 {
				t.Errorf("after a volunteer: silent %v %v %v, pending %d; want A and C asked", c.Silent(0), c.Silent(1), c.Silent(2), c.Pending())
			}
			// The first vote of a member counts; a duplicate, a stranger's
			// vote and another reply do not.
			c.Vote("A", vote(VoteYes))
			c.Vote("A", vote(VoteNo))
			c.Vote("X", vote(VoteNo))
			c.Vote("C", &Message{Type: MsgAck})
			if next := c.Local(VoteYes); next != NextCollect || c.Pending() != 1 {
				t.Errorf("after A's yes and noise: %v, pending %d; want C still owed", next, c.Pending())
			}
			if next := c.Vote("C", vote(VoteReadOnly)); next != NextCommit || c.Fold() != VoteYes {
				t.Errorf("all in = %v, fold %v; want NextCommit, yes", next, c.Fold())
			}
			// The commit: its record and acks; the read-only voter hears
			// nothing.
			d := c.Decide(true)
			if d.Write != Forced || d.Acked != r.ackCommit || d.Early != r.early || !reflect.DeepEqual(d.Yes, []string{"A", "B"}) {
				t.Errorf("commit = %+v, want forced, acked %v, early %v, naming A and B", d, r.ackCommit, r.early)
			}
			if got := told(&c); !reflect.DeepEqual(got, []string{"A", "B"}) || d.Told != 2 {
				t.Errorf("commit told %v (%d), want A and B", got, d.Told)
			}
			wantOwed := 0
			if r.ackCommit {
				wantOwed = 2
			}
			if c.Owed() != wantOwed {
				t.Fatalf("commit owes %d acks, want %d", c.Owed(), wantOwed)
			}
			// The acks: a read-only voter's, a stranger's, a vote and a
			// duplicate do not count.
			for _, a := range []struct {
				from string
				m    Message
				want bool
			}{
				{"C", Message{Type: MsgAck}, false},
				{"X", Message{Type: MsgAck}, false},
				{"A", Message{Type: MsgVote}, false},
				{"A", Message{Type: MsgAck}, r.ackCommit},
				{"A", Message{Type: MsgAck}, false},
			} {
				if got := c.Ack(a.from, &a.m); got != a.want {
					t.Errorf("ack %s %v counted %v, want %v", a.from, a.m.Type, got, a.want)
				}
			}
			if r.ackCommit && (c.Owed() != 1 || !reflect.DeepEqual(c.Missing(), []string{"B"})) {
				t.Errorf("after A's ack: owed %d, missing %v; want B", c.Owed(), c.Missing())
			}
			if !r.ackCommit && c.Missing() != nil {
				t.Errorf("unacked commit misses %v", c.Missing())
			}

			// A no mid-tally: abort at once. The no-voter and the silent
			// member hear it (the simulator leaves the no-voter out).
			c = Coord{}
			c.Begin(v, []string{"A", "B"}, "")
			c.Ask()
			if next := c.Vote("A", vote(VoteNo)); next != NextAbort || c.Fold() != VoteNo {
				t.Errorf("a no mid-tally = %v, fold %v; want NextAbort, no", next, c.Fold())
			}
			d = c.Decide(false)
			if d.Write != r.abortWrite || d.Acked != r.ackAbort || !reflect.DeepEqual(told(&c), []string{"A", "B"}) {
				t.Errorf("abort on a no = %+v told %v, want write %v acked %v, A and B told", d, told(&c), r.abortWrite, r.ackAbort)
			}
			if want := map[bool]int{true: 2}[r.ackAbort]; c.Owed() != want {
				t.Errorf("abort owes %d acks, want %d", c.Owed(), want)
			}

			// The deadline: every silent member hears the abort, which
			// counts as voted once the Prepares left; after a forced
			// pre-prepare record it is written as logged.
			c = Coord{}
			pre := c.Begin(v, []string{"A", "B"}, "")
			c.Logged = pre.Kind != ""
			c.Ask()
			c.Vote("A", vote(VoteYes))
			if next := c.Local(VoteYes); next != NextCollect {
				t.Errorf("B silent = %v, want NextCollect", next)
			}
			wantW := r.abortWrite
			if c.Logged {
				wantW = r.loggedAbort
			}
			if d := c.Decide(false); d.Write != wantW || !reflect.DeepEqual(told(&c), []string{"A", "B"}) {
				t.Errorf("deadline abort = %+v told %v, want write %v, A and B told", d, told(&c), wantW)
			}
			// Silence from everyone: the Prepares left, so a vote may be
			// in flight, and the abort is written as voted.
			c = Coord{}
			c.Begin(v, []string{"A"}, "")
			c.Ask()
			c.Local(VoteYes)
			if d := c.Decide(false); d.Write != r.abortWrite || d.Told != 1 {
				t.Errorf("abort with no vote in = %+v, want write %v, A told", d, r.abortWrite)
			}
			// An abort before anything was asked or forced (a failed
			// pre-prepare force) is written by no variant.
			c = Coord{}
			c.Begin(v, []string{"A"}, "")
			if d := c.Decide(false); d.Write != NoWrite || !reflect.DeepEqual(told(&c), []string{"A"}) {
				t.Errorf("abort before the Prepares = %+v told %v, want unwritten, A told", d, told(&c))
			}

			// Every vote read-only: no record and nobody told.
			c = Coord{}
			c.Begin(v, []string{"A"}, "")
			c.Ask()
			c.Vote("A", vote(VoteReadOnly))
			if next := c.Local(VoteReadOnly); next != NextCommit || c.Fold() != VoteReadOnly {
				t.Errorf("all read-only = %v, fold %v", next, c.Fold())
			}
			if d := c.Decide(true); d.Write != NoWrite || d.Told != 0 || c.Owed() != 0 || len(d.Yes) != 0 {
				t.Errorf("read-only commit = %+v owed %d, want nothing written, nobody told", d, c.Owed())
			}

			// A restart's round: its members are yes-voters, all told.
			c = Coord{Logged: true}
			c.Reinstate(v, []string{"A", "B"}, "")
			if d := c.Decide(false); d.Write != r.loggedAbort || d.Told != 2 || !c.Logged {
				t.Errorf("reinstated abort = %+v, want write %v, both told", d, r.loggedAbort)
			}

			if !r.delegates {
				// A logless vote has nothing to delegate: the agent is
				// asked like any member.
				c = Coord{}
				c.Begin(v, []string{"A", "B"}, "B")
				if c.Agent() != "" || !c.Silent(1) {
					t.Errorf("1PC held out agent %q", c.Agent())
				}
				return
			}
			// Last Agent: the agent is held out of phase one, the
			// delegation record names it and the other yes-voters, and
			// its answer is decided as the owner's, logged.
			for _, commit := range []bool{true, false} {
				c = Coord{}
				c.Begin(v, []string{"A", "B", "C"}, "C")
				c.Ask()
				if c.Silent(2) || c.Pending() != 2 || c.Agent() != "C" {
					t.Errorf("agent asked: silent %v pending %d", c.Silent(2), c.Pending())
				}
				c.Vote("A", vote(VoteYes))
				c.Vote("B", vote(VoteReadOnly))
				if next := c.Local(VoteYes); next != NextDelegate {
					t.Errorf("all in with an agent = %v, want NextDelegate", next)
				}
				rec := c.Delegate()
				want := LogRecord{Kind: RecPrepared, Presume: v, Agent: "C", Subs: []string{"A"}}
				if !reflect.DeepEqual(rec, want) || c.Next() != NextCommit {
					t.Errorf("delegation record %+v, next %v; want %+v", rec, c.Next(), want)
				}
				c.Logged = true
				// Only the agent's outcome answers; the agent is acked
				// once the record is written iff the outcome is acked.
				out := OutcomeMessage("t", commit)
				if _, ok := c.Answer("A", &out); ok {
					t.Errorf("an outcome from A answered for the agent")
				}
				if got, ok := c.Answer("C", &out); !ok || got != commit {
					t.Errorf("agent's answer = %v, %v; want %v", got, ok, commit)
				}
				wantW, acked := Forced, r.ackCommit
				if !commit {
					wantW, acked = r.loggedAbort, r.ackAbort
				}
				if d := c.Decide(commit); d.Write != wantW || d.Acked != acked || d.AckAgent != acked || !reflect.DeepEqual(told(&c), []string{"A"}) {
					t.Errorf("agent's %v = %+v told %v, want write %v, agent acked %v, A alone told", commit, d, told(&c), wantW, acked)
				}
			}
			// A delegation with every vote read-only forces nothing, and
			// the agent's commit is unwritten.
			c = Coord{}
			c.Begin(v, []string{"A", "B"}, "B")
			c.Ask()
			c.Vote("A", vote(VoteReadOnly))
			c.Local(VoteReadOnly)
			if rec := c.Delegate(); rec.Kind != "" {
				t.Errorf("read-only delegation record %+v, want none", rec)
			}
			if d := c.Decide(true); d.Write != NoWrite || d.Told != 0 {
				t.Errorf("read-only agent commit = %+v, want unwritten, nobody told", d)
			}
			// An abort before the delegation tells the agent too: it may
			// hold work.
			c = Coord{}
			c.Begin(v, []string{"A", "B"}, "B")
			c.Ask()
			c.Vote("A", vote(VoteNo))
			if d := c.Decide(false); d.AckAgent || !reflect.DeepEqual(told(&c), []string{"A", "B"}) {
				t.Errorf("abort before delegating = %+v told %v, want A and the agent told, no ack", d, told(&c))
			}
		})
	}
}

// The 1PC commit record embeds each yes-voter's redo beside it, in
// member order whatever order the votes came in; the injected bug
// writes it lazily.
func TestCoordOnePhaseRedos(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		c := Coord{OnePhaseLazyDecision: lazy}
		c.Begin(Variant1PC, []string{"A", "B", "C"}, "")
		c.Ask()
		c.Vote("C", &Message{Type: MsgVote, Vote: VoteYes, Payload: []byte("c")})
		c.Vote("B", vote(VoteReadOnly))
		c.Vote("A", &Message{Type: MsgVote, Vote: VoteYes, Payload: []byte("a")})
		c.Local(VoteYes)
		d := c.Decide(true)
		want := Forced
		if lazy {
			want = Lazy
		}
		if !d.Redo || d.Write != want || !reflect.DeepEqual(d.Yes, []string{"A", "C"}) || !reflect.DeepEqual(d.Redos, [][]byte{[]byte("a"), []byte("c")}) {
			t.Errorf("lazy %v: 1PC commit %+v, want a %v record naming A, C with their redos", lazy, d, want)
		}
	}
}

// PN's acks bring heuristic reports to the root; a report on an ack
// nobody owes is kept too.
func TestCoordHeuristics(t *testing.T) {
	var c Coord
	c.Begin(VariantPN, []string{"A", "B"}, "")
	c.Ask()
	c.Vote("A", vote(VoteYes))
	c.Vote("B", vote(VoteYes))
	c.Local(VoteYes)
	if d := c.Decide(true); d.Early {
		t.Fatalf("PN commit answers before its acks: %+v", d)
	}
	damage := HeuristicReport{Node: "A2", Committed: false, Damage: true}
	c.Ack("A", &Message{Type: MsgAck, Heuristics: []HeuristicReport{damage}})
	c.Ack("X", &Message{Type: MsgAck, Heuristics: []HeuristicReport{{Node: "X", Committed: true}}})
	c.Ack("B", &Message{Type: MsgAck})
	if c.Owed() != 0 || len(c.Heuristics) != 2 || c.Heuristics[0] != damage {
		t.Errorf("owed %d, heuristics %+v; want none owed, both reports", c.Owed(), c.Heuristics)
	}
}
