package protocol

import (
	"reflect"
	"testing"
)

// The rows below are written out from DESIGN §13 (the Paxos Commit
// shape, its Table 2-3 extension and the "One rulebook, two drivers"
// call table), not from the code: the tree is C, S1, S2, S3, so the
// acceptors are C, S1, S2 (a = 3, f = 1, a quorum of 2), and a
// leader's ballots are attempt*4 + its participant index + 1.

var (
	leadSubs      = []string{"S1", "S2", "S3"}
	leadAcceptors = []string{"C", "S1", "S2"}
	leadParts     = []string{"C", "S1", "S2", "S3"}
)

// leadAt is self's state with the membership known, its own vote cast.
func leadAt(self string, vote VoteValue) *PaxosLead {
	l := NewPaxosLead(self, TestHooks{})
	l.Adopt(leadAcceptors, leadParts)
	l.Cast(vote)
	return l
}

// st is an accepted instance state.
func st(inst string, ballot int, v VoteValue) PaxosInstanceState {
	return PaxosInstanceState{Instance: inst, Ballot: ballot, Vote: v}
}

// reply is an acceptor's report at ballot.
func reply(t MsgType, ballot int, states ...PaxosInstanceState) PaxosMsg {
	return PaxosMsg{Type: t, Meta: PaxosMeta{Ballot: ballot, States: states}}
}

// leadInput is one reply to a leader and what DESIGN §13 says comes of
// it: a decision (and its value), a proposal, or nothing.
type leadInput struct {
	why     string
	from    string
	m       PaxosMsg
	decided bool
	commit  bool
	propose bool
}

// TestPaxosLeadRound walks a Paxos Commit leader through each input it
// meets — Begin, an acceptor's PaxosAccepted, a PaxosPromise and the
// timer — in each state it can meet it in.
func TestPaxosLeadRound(t *testing.T) {
	allYes := []PaxosInstanceState{st("C", 0, VoteYes), st("S1", 0, VoteYes), st("S2", 0, VoteYes), st("S3", 0, VoteYes)}
	oneNo := []PaxosInstanceState{st("C", 0, VoteYes), st("S1", 0, VoteYes), st("S2", 0, VoteNo), st("S3", 0, VoteYes)}

	t.Run("begin", func(t *testing.T) {
		// The coordinator is the ballot-0 leader: its Prepares announce
		// the membership, and its own vote goes to the acceptors as its
		// instance's ballot-0 accept — once, read-only folding to yes.
		l := NewPaxosLead("C", TestHooks{})
		prep := l.Begin("t", leadSubs)
		meta, err := DecodePaxosMeta(prep.Payload)
		if prep.Type != MsgPrepare || prep.Tx != "t" || prep.Presume != VariantPaxos || err != nil ||
			meta.Ballot != 0 || meta.Leader != "C" || !reflect.DeepEqual(meta.Acceptors, leadAcceptors) || !reflect.DeepEqual(meta.Participants, leadParts) {
			t.Fatalf("prepare = %+v (%+v, %v); want a paxos Prepare at ballot 0 naming acceptors %v of %v, leader C", prep, meta, err, leadAcceptors, leadParts)
		}
		a, ok := l.Cast(VoteReadOnly)
		if !ok || a.Type != MsgPaxosAccept || a.Vote != VoteYes || a.Meta.Ballot != 0 || a.Meta.Instance != "C" || a.Meta.Leader != "C" {
			t.Fatalf("own accept = %+v, %v; want C's instance at ballot 0, yes, replies to C", a, ok)
		}
		if _, again := l.Cast(VoteNo); again || l.Vote != VoteYes {
			t.Errorf("a second cast went out (%v) or changed the vote (%v)", again, l.Vote)
		}
		if got := l.Others(); !reflect.DeepEqual(got, leadSubs) {
			t.Errorf("the coordinator's decision reaches %v, want its subordinates %v", got, leadSubs)
		}
	})

	t.Run("cast waits for the membership", func(t *testing.T) {
		// A participant that prepared before any Prepare reached it
		// votes when the late Prepare brings the membership.
		l := NewPaxosLead("S3", TestHooks{})
		if _, ok := l.Cast(VoteNo); ok {
			t.Fatal("cast with no membership went out")
		}
		prep := NewPaxosLead("C", TestHooks{}).Begin("t", leadSubs)
		if !l.Asked(&prep) {
			t.Fatal("the Prepare did not ask for the vote")
		}
		if a, ok := l.Cast(l.Vote); !ok || a.Vote != VoteNo || a.Meta.Instance != "S3" || a.Meta.Leader != "C" {
			t.Fatalf("late cast = %+v, %v; want S3's No, replies to C", a, ok)
		}
		if l.Asked(&prep) {
			t.Error("a duplicate Prepare asked again")
		}
	})

	ballot0 := []struct {
		name   string
		inputs []leadInput
	}{
		{
			name: "ballot-0 acks decide commit at a quorum of each instance",
			inputs: []leadInput{
				{why: "a non-acceptor's report counts for nothing", from: "S3", m: reply(MsgPaxosAccepted, 0, allYes...)},
				{why: "a report for another ballot counts for nothing", from: "S1", m: reply(MsgPaxosAccepted, 5, allYes...)},
				{why: "one acceptor's bundle is below the quorum", from: "C", m: reply(MsgPaxosAccepted, 0, allYes...)},
				{why: "the same acceptor again is still one", from: "C", m: reply(MsgPaxosAccepted, 0, allYes...)},
				{why: "a promise at ballot 0: the fast path has no promise phase", from: "S1", m: reply(MsgPaxosPromise, 0)},
				{why: "f+1 bundles per instance decide", from: "S1", m: reply(MsgPaxosAccepted, 0, allYes...), decided: true, commit: true},
				{why: "a later bundle decides the same again", from: "S2", m: reply(MsgPaxosAccepted, 0, allYes...), decided: true, commit: true},
			},
		},
		{
			name: "a No instance aborts",
			inputs: []leadInput{
				{why: "below quorum", from: "S2", m: reply(MsgPaxosAccepted, 0, oneNo...)},
				{why: "at quorum, S2's instance is No", from: "C", m: reply(MsgPaxosAccepted, 0, oneNo...), decided: true},
			},
		},
		{
			name: "an instance short of a quorum holds the decision",
			inputs: []leadInput{
				{why: "two bundles, one missing S3's instance", from: "C", m: reply(MsgPaxosAccepted, 0, allYes[:3]...)},
				{from: "S1", m: reply(MsgPaxosAccepted, 0, allYes...)},
				{why: "S3's instance reaches its quorum", from: "S2", m: reply(MsgPaxosAccepted, 0, allYes...), decided: true, commit: true},
			},
		},
	}
	for _, c := range ballot0 {
		t.Run(c.name, func(t *testing.T) {
			l := NewPaxosLead("C", TestHooks{})
			l.Begin("t", leadSubs)
			runLead(t, l, c.inputs)
		})
	}

	t.Run("no ballot led", func(t *testing.T) {
		// A node that neither began the transaction nor timed out leads
		// nothing: replies to it count for nothing.
		l := leadAt("S1", VoteYes)
		for _, m := range []PaxosMsg{reply(MsgPaxosAccepted, 0, allYes...), reply(MsgPaxosPromise, 0)} {
			if next := l.Reply("C", m); !reflect.DeepEqual(next, PaxosNext{}) {
				t.Errorf("reply %v while leading nothing = %+v", m.Type, next)
			}
		}
	})

	t.Run("timer", func(t *testing.T) {
		// Each timeout starts the leader's next recovery ballot, unique
		// across leaders and attempts, with its query to the acceptors;
		// past PaxosMaxAttempts the transaction is left to an operator.
		seen := map[int]string{}
		for i, self := range leadParts {
			l := leadAt(self, VoteYes)
			for attempt := 1; attempt <= PaxosMaxAttempts; attempt++ {
				q, ok := l.Timeout()
				want := attempt*len(leadParts) + i + 1
				if !ok || q.Type != MsgPaxosQuery || q.Meta.Ballot != want || q.Meta.Leader != self ||
					!reflect.DeepEqual(q.Meta.Acceptors, leadAcceptors) || !reflect.DeepEqual(q.Meta.Participants, leadParts) {
					t.Fatalf("%s timeout %d = %+v, %v; want a query at ballot %d naming the membership", self, attempt, q, ok, want)
				}
				if prev, dup := seen[want]; dup {
					t.Fatalf("ballot %d led by %s and %s", want, prev, self)
				}
				seen[want] = self
			}
			if q, ok := l.Timeout(); ok {
				t.Errorf("%s: timeout past PaxosMaxAttempts gave ballot %d", self, q.Meta.Ballot)
			}
		}
	})

	t.Run("recovery ballot", func(t *testing.T) {
		// S3, no acceptor, leads its first recovery ballot, 8. The
		// promises choose each instance's value: the highest-ballot
		// value reported, a free instance No, the leader's own instance
		// its own vote. The proposal comes once, then its acks decide.
		l := leadAt("S3", VoteYes)
		if q, _ := l.Timeout(); q.Meta.Ballot != 8 {
			t.Fatalf("first ballot %d, want 8", q.Meta.Ballot)
		}
		promises := []leadInput{
			{why: "one promise is below the quorum", from: "C", m: reply(MsgPaxosPromise, 8, st("C", 0, VoteYes), st("S1", 0, VoteYes))},
			{why: "the same acceptor again is still one", from: "C", m: reply(MsgPaxosPromise, 8, st("C", 0, VoteYes))},
			{why: "a non-acceptor's promise counts for nothing", from: "S3", m: reply(MsgPaxosPromise, 8)},
			{why: "a promise of another ballot counts for nothing", from: "S1", m: reply(MsgPaxosPromise, 4)},
			{why: "an acceptance before the proposal decides nothing", from: "S1", m: reply(MsgPaxosAccepted, 8, st("S1", 8, VoteYes))},
			{why: "a quorum of promises yields the proposal", from: "S1", m: reply(MsgPaxosPromise, 8, st("C", 6, VoteNo)), propose: true},
			{why: "the proposal comes once", from: "S2", m: reply(MsgPaxosPromise, 8, st("S2", 0, VoteYes))},
		}
		var prop []PaxosMsg
		for _, in := range promises {
			next := l.Reply(in.from, in.m)
			if (next.Propose != nil) != in.propose || next.Decided {
				t.Fatalf("%s: %+v", in.why, next)
			}
			if in.propose {
				prop = next.Propose
			}
		}
		// C's instance takes the No reported at ballot 6 over the Yes
		// at 0; S1's is the reported Yes; S2's is free, so No (S2's own
		// report came after the quorum); S3's is the leader's own Yes.
		want := map[string]VoteValue{"C": VoteNo, "S1": VoteYes, "S2": VoteNo, "S3": VoteYes}
		if len(prop) != len(leadParts) {
			t.Fatalf("proposal %+v, want one accept per instance", prop)
		}
		for i, a := range prop {
			if a.Type != MsgPaxosAccept || a.Meta.Instance != leadParts[i] || a.Meta.Ballot != 8 || a.Meta.Leader != "S3" || a.Vote != want[a.Meta.Instance] {
				t.Errorf("proposal %d = %+v; want a ballot-8 accept of %s, %v, replies to S3", i, a, leadParts[i], want[leadParts[i]])
			}
		}
		// A recovery acceptance reports one instance; each needs f+1.
		var acks []leadInput
		for _, from := range []string{"C", "S1"} {
			for i, inst := range leadParts {
				acks = append(acks, leadInput{from: from, m: reply(MsgPaxosAccepted, 8, st(inst, 8, want[inst])),
					decided: from == "S1" && i == len(leadParts)-1})
			}
		}
		runLead(t, l, acks)
		if got, want := l.Others(), []string{"C", "S1", "S2"}; !reflect.DeepEqual(got, want) {
			t.Errorf("a recovery leader's decision reaches %v, want every other participant %v", got, want)
		}
	})

	t.Run("acceptor replies are addressed", func(t *testing.T) {
		// Accept and promise steps come with their record and their
		// report to the ballot's leader: a PaxAccept record and a
		// PaxosAccepted carrying the states (No if any is No), a
		// PaxPromise record and a PaxosPromise.
		a := leadAt("S1", VoteYes)
		var last PaxosStep
		for _, inst := range leadParts {
			v := VoteYes
			if inst == "S2" {
				v = VoteNo
			}
			step, ok := a.Take(PaxosMsg{Type: MsgPaxosAccept, Vote: v, Meta: PaxosMeta{Instance: inst, Leader: "C"}})
			if ok != (inst == "S3") {
				t.Fatalf("accept of %s: step %v; the bundle comes with the last instance", inst, ok)
			}
			last = step
		}
		if last.Kind != RecPaxAccept || !last.Force || last.To != "C" || last.Reply.Type != MsgPaxosAccepted ||
			last.Reply.Vote != VoteNo || last.Reply.Meta.Ballot != 0 || len(last.Reply.Meta.States) != len(leadParts) {
			t.Errorf("bundle step %+v; want a forced PaxAccept and a No PaxosAccepted of every instance to C", last)
		}
		step, ok := a.Take(PaxosMsg{Type: MsgPaxosQuery, Meta: PaxosMeta{Ballot: 7, Leader: "S2"}})
		if !ok || step.Kind != RecPaxPromise || !step.Force || step.To != "S2" || step.Reply.Type != MsgPaxosPromise || step.Reply.Meta.Ballot != 7 {
			t.Errorf("query step %+v, %v; want a forced PaxPromise and a PaxosPromise to S2 at 7", step, ok)
		}
		if to, r, ok := (PaxosMsg{Meta: PaxosMeta{Leader: "S2"}}).Answer("S1", "C", "t", true); !ok || to != "S2" || r.Type != MsgOutcome || r.Outcome != OutcomeCommit {
			t.Errorf("decided answer %v %+v %v; want the commit to the leader S2", to, r, ok)
		}
		if to, _, ok := (PaxosMsg{Meta: PaxosMeta{Leader: "S1"}}).Answer("S1", "C", "t", false); !ok || to != "C" {
			t.Errorf("answer to its own ballot went to %v (%v); want the sender C", to, ok)
		}
		if _, _, ok := (PaxosMsg{}).Answer("S1", "S1", "t", false); ok {
			t.Error("a node answered itself")
		}
	})
}

// runLead feeds in to l and checks each answer.
func runLead(t *testing.T, l *PaxosLead, in []leadInput) {
	t.Helper()
	for i, x := range in {
		next := l.Reply(x.from, x.m)
		if next.Decided != x.decided || next.Decided && next.Commit != x.commit || (next.Propose != nil) != x.propose {
			t.Fatalf("input %d (%s from %s): %+v; want decided %v commit %v", i, x.why, x.from, next, x.decided, x.commit)
		}
	}
}

// TestPaxosRestart: a restarted node's own instance is what it can
// still stand by — Yes with its Prepared record, else No — it never
// casts again, and its membership and acceptor state come back from
// its records.
func TestPaxosRestart(t *testing.T) {
	meta := PaxosMeta{Acceptors: leadAcceptors, Participants: leadParts}
	bundle := meta
	bundle.States = []PaxosInstanceState{st("C", 0, VoteYes), st("S1", 0, VoteYes), st("S2", 0, VoteYes), st("S3", 0, VoteYes)}
	cases := []struct {
		name string
		log  TxLog
		vote VoteValue
	}{
		{"prepared", TxLog{Prepared: &LogRecord{Kind: RecPrepared, Paxos: &meta}}, VoteYes},
		{"acceptor that never prepared", TxLog{Acceptor: true, Accepts: []PaxosMeta{bundle}}, VoteNo},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.log.Paxos() {
				t.Fatal("log holds no paxos state")
			}
			l := NewPaxosLead("S1", TestHooks{})
			c.log.Restart(&l.PaxosTx)
			if l.Vote != c.vote || !l.VoteSent || !reflect.DeepEqual(l.Acceptors, leadAcceptors) {
				t.Fatalf("restart: vote %v sent %v acceptors %v; want %v, sent, %v", l.Vote, l.VoteSent, l.Acceptors, c.vote, leadAcceptors)
			}
			if _, ok := l.Cast(VoteYes); ok {
				t.Error("a restarted node cast again")
			}
			if got := l.Bundled(); got != (c.log.Accepts != nil) {
				t.Errorf("bundle restored = %v", got)
			}
		})
	}
	if (&TxLog{Prepared: &LogRecord{Kind: RecPrepared}}).Paxos() {
		t.Error("a classic Prepared record reads as paxos state")
	}
}
