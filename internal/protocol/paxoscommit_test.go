package protocol

import (
	"reflect"
	"testing"
)

// acceptorAt returns self's state in the tree C, S1, S2, S3 (acceptors
// C, S1, S2), with the membership known.
func acceptorAt(self string) *PaxosTx {
	t := &PaxosTx{Self: self}
	subs := []string{"S1", "S2", "S3"}
	t.Adopt(PaxosAcceptorSet("C", subs), append([]string{"C"}, subs...))
	return t
}

// paxosInput is one acceptor call: an accept of (inst, vote) at
// ballot, a promise of ballot, or a restore of a PaxAccept (restore)
// or PaxPromise (restorePromise) record.
type paxosInput struct {
	kind   string // "accept", "promise", "restore", "restorePromise"
	ballot int
	inst   string
	vote   VoteValue
	states []PaxosInstanceState
}

func (in paxosInput) apply(t *PaxosTx) (PaxosStep, bool) {
	switch in.kind {
	case "accept":
		return t.Accept(in.ballot, in.inst, in.vote)
	case "promise":
		return t.Promise(in.ballot)
	default:
		t.Restore(in.kind == "restore", in.ballot, in.states)
		return PaxosStep{}, false
	}
}

func accept(ballot int, inst string, vote VoteValue) paxosInput {
	return paxosInput{kind: "accept", ballot: ballot, inst: inst, vote: vote}
}

func TestPaxosAcceptorRules(t *testing.T) {
	yes := func(inst string, b int) PaxosInstanceState { return PaxosInstanceState{inst, b, VoteYes} }
	no := func(inst string, b int) PaxosInstanceState { return PaxosInstanceState{inst, b, VoteNo} }
	bundle := []paxosInput{accept(0, "C", VoteYes), accept(0, "S1", VoteYes), accept(0, "S2", VoteYes), accept(0, "S3", VoteNo)}
	cases := []struct {
		name     string
		inputs   []paxosInput
		want     []bool // per input: whether a step came out
		last     PaxosStep
		promised int
		bundled  bool
		states   []PaxosInstanceState
	}{
		{
			name:    "bundle only once every instance has reported",
			inputs:  bundle,
			want:    []bool{false, false, false, true},
			last:    PaxosStep{States: []PaxosInstanceState{yes("C", 0), yes("S1", 0), yes("S2", 0), no("S3", 0)}, Force: true},
			bundled: true,
			states:  []PaxosInstanceState{yes("C", 0), yes("S1", 0), yes("S2", 0), no("S3", 0)},
		},
		{
			name:    "bundle emitted once",
			inputs:  append(append([]paxosInput{}, bundle...), accept(0, "S3", VoteNo), accept(0, "C", VoteYes)),
			want:    []bool{false, false, false, true, false, false},
			bundled: true,
			states:  []PaxosInstanceState{yes("C", 0), yes("S1", 0), yes("S2", 0), no("S3", 0)},
		},
		{
			name:     "promise drops volatile ballot-0 accepts",
			inputs:   []paxosInput{accept(0, "C", VoteYes), accept(0, "S1", VoteYes), {kind: "promise", ballot: 6}},
			want:     []bool{false, false, true},
			last:     PaxosStep{Ballot: 6, Force: true},
			promised: 6,
		},
		{
			name:     "promise keeps the bundle",
			inputs:   append(append([]paxosInput{}, bundle...), paxosInput{kind: "promise", ballot: 6}),
			want:     []bool{false, false, false, true, true},
			last:     PaxosStep{Ballot: 6, States: []PaxosInstanceState{yes("C", 0), yes("S1", 0), yes("S2", 0), no("S3", 0)}, Force: true},
			promised: 6,
			bundled:  true,
			states:   []PaxosInstanceState{yes("C", 0), yes("S1", 0), yes("S2", 0), no("S3", 0)},
		},
		{
			name:     "stale ballots refused",
			inputs:   []paxosInput{{kind: "promise", ballot: 9}, accept(0, "C", VoteYes), accept(5, "C", VoteYes), {kind: "promise", ballot: 9}, {kind: "promise", ballot: 7}},
			want:     []bool{true, false, false, false, false},
			promised: 9,
		},
		{
			name:     "recovery-ballot accept raises the promise",
			inputs:   []paxosInput{accept(7, "S3", VoteNo), {kind: "promise", ballot: 6}, accept(6, "S3", VoteYes)},
			want:     []bool{true, false, false},
			last:     PaxosStep{Ballot: 7, States: []PaxosInstanceState{no("S3", 7)}, Force: true},
			promised: 7,
			states:   []PaxosInstanceState{no("S3", 7)},
		},
		{
			name:   "unknown instance refused",
			inputs: []paxosInput{accept(5, "X", VoteYes), accept(5, "", VoteYes)},
			want:   []bool{false, false},
		},
		{
			name:     "restore keeps the highest ballot per instance",
			inputs:   []paxosInput{{kind: "restore", ballot: 5, states: []PaxosInstanceState{no("C", 5)}}, {kind: "restore", ballot: 0, states: []PaxosInstanceState{yes("C", 0), yes("S1", 0)}}, {kind: "restorePromise", ballot: 11}},
			want:     []bool{false, false, false},
			promised: 11,
			bundled:  true,
			states:   []PaxosInstanceState{no("C", 5), yes("S1", 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc := acceptorAt("S1")
			var last PaxosStep
			for i, in := range tc.inputs {
				step, ok := in.apply(acc)
				if ok != tc.want[i] {
					t.Fatalf("input %d (%+v): step=%v, want %v", i, in, ok, tc.want[i])
				}
				if ok {
					last = step
				}
			}
			if tc.last.States != nil || tc.last.Ballot != 0 {
				if !reflect.DeepEqual(last, tc.last) {
					t.Errorf("last step = %+v, want %+v", last, tc.last)
				}
			}
			if acc.promised != tc.promised || acc.Bundled() != tc.bundled {
				t.Errorf("promised=%d bundled=%v, want %d %v", acc.promised, acc.Bundled(), tc.promised, tc.bundled)
			}
			if got := acc.States(); !reflect.DeepEqual(got, tc.states) {
				t.Errorf("states = %+v, want %+v", got, tc.states)
			}
		})
	}
}

func TestPaxosAcceptorOnlyAtAcceptors(t *testing.T) {
	plain := acceptorAt("S3") // S3 is a participant but not an acceptor
	if _, ok := plain.Accept(0, "S3", VoteYes); ok {
		t.Error("a non-acceptor accepted")
	}
	if _, ok := plain.Promise(5); ok {
		t.Error("a non-acceptor promised")
	}
	blank := &PaxosTx{Self: "S1"} // membership not yet learned
	if _, ok := blank.Accept(0, "S1", VoteYes); ok {
		t.Error("an acceptor without membership accepted")
	}
}

func TestPaxosSkipAcceptorForce(t *testing.T) {
	acc := acceptorAt("S1")
	acc.SkipAcceptorForce = true
	var step PaxosStep
	for _, in := range []string{"C", "S1", "S2", "S3"} {
		step, _ = acc.Accept(0, in, VoteYes)
	}
	if step.States == nil || step.Force {
		t.Errorf("bundle = %+v, want an unforced step", step)
	}
	if step, ok := acc.Accept(6, "S3", VoteYes); !ok || step.Force {
		t.Errorf("recovery accept = %+v, %v, want an unforced step", step, ok)
	}
	if step, ok := acc.Promise(9); !ok || !step.Force {
		t.Errorf("promise = %+v, %v: the hook covers acceptances only", step, ok)
	}
}

// TestPaxosRestoreMatchesAcceptPath replays each step an acceptor
// emitted as the record its driver wrote, into a fresh acceptor, and
// requires the same state back.
func TestPaxosRestoreMatchesAcceptPath(t *testing.T) {
	inputs := []paxosInput{
		accept(0, "C", VoteYes), accept(0, "S1", VoteYes), accept(0, "S2", VoteNo), accept(0, "S3", VoteYes),
		{kind: "promise", ballot: 6}, accept(6, "S2", VoteNo), accept(11, "S3", VoteYes), {kind: "promise", ballot: 13},
	}
	live := acceptorAt("S1")
	restored := acceptorAt("S1")
	for _, in := range inputs {
		if step, ok := in.apply(live); ok {
			restored.Restore(in.kind == "accept", step.Ballot, step.States)
		}
	}
	if live.promised != restored.promised || live.bundled != restored.bundled ||
		!reflect.DeepEqual(live.States(), restored.States()) {
		t.Fatalf("restored %+v, accept path %+v", restored, live)
	}
}

// TestPaxosBallotsUnique: no two leaders share a ballot, and one
// leader's successive rounds, counted by NextBallot, never repeat one.
func TestPaxosBallotsUnique(t *testing.T) {
	parts := []string{"C", "S1", "S2", "S3"}
	seen := map[int]string{}
	for _, self := range parts {
		tx := acceptorAt(self)
		for a := 1; a <= PaxosMaxAttempts; a++ {
			b, ok := tx.NextBallot()
			if want, _ := tx.Ballot(a); !ok || b <= 0 || b != want {
				t.Fatalf("%s attempt %d: ballot %d, %v; want %d", self, a, b, ok, want)
			}
			if prev, dup := seen[b]; dup {
				t.Fatalf("ballot %d issued to %s and %s", b, prev, self)
			}
			seen[b] = self
		}
		if _, ok := tx.NextBallot(); ok {
			t.Errorf("%s: attempt past the cap got a ballot", self)
		}
		if _, ok := tx.Ballot(PaxosMaxAttempts + 1); ok {
			t.Errorf("%s: attempt past the cap got a ballot", self)
		}
	}
	if _, ok := acceptorAt("X").Ballot(1); ok {
		t.Error("a non-participant got a ballot")
	}
}

func TestPaxosValueChoice(t *testing.T) {
	cases := []struct {
		name     string
		self     string
		own      VoteValue
		promises map[string][]PaxosInstanceState // by acceptor, in arrival order C, S1, S2
		want     []VoteValue                     // per instance C, S1, S2, S3
	}{
		{
			name: "max-ballot value wins",
			self: "S1", own: VoteYes,
			promises: map[string][]PaxosInstanceState{
				"C":  {{"C", 0, VoteYes}, {"S1", 0, VoteYes}, {"S2", 0, VoteYes}, {"S3", 0, VoteYes}},
				"S2": {{"C", 5, VoteNo}, {"S2", 0, VoteYes}},
			},
			want: []VoteValue{VoteNo, VoteYes, VoteYes, VoteYes},
		},
		{
			name: "free instances default to No, the own one to the own vote",
			self: "S1", own: VoteYes,
			promises: map[string][]PaxosInstanceState{"C": nil, "S1": {{"S2", 0, VoteYes}}},
			want:     []VoteValue{VoteNo, VoteYes, VoteYes, VoteNo},
		},
		{
			name: "an own No vote is proposed as No",
			self: "S3", own: VoteNo,
			promises: map[string][]PaxosInstanceState{"S1": nil, "S2": nil},
			want:     []VoteValue{VoteNo, VoteNo, VoteNo, VoteNo},
		},
		{
			name: "a reported value beats the own vote",
			self: "S3", own: VoteNo,
			promises: map[string][]PaxosInstanceState{"S1": {{"S3", 0, VoteYes}}, "S2": nil},
			want:     []VoteValue{VoteNo, VoteNo, VoteNo, VoteYes},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := acceptorAt(tc.self)
			tx.Vote = tc.own
			r := tx.NewRound(9)
			var prop []PaxosInstanceState
			for _, a := range tx.Acceptors {
				states, ok := tc.promises[a]
				if !ok {
					continue
				}
				if prop != nil {
					t.Fatal("proposal before the last promise of the quorum")
				}
				prop = r.Promise(a, 9, states)
			}
			if prop == nil {
				t.Fatal("no proposal at a promise quorum")
			}
			for i, st := range prop {
				if st.Instance != tx.Participants[i] || st.Ballot != 9 || st.Vote != tc.want[i] {
					t.Errorf("proposal[%d] = %+v, want %s at 9 = %v", i, st, tx.Participants[i], tc.want[i])
				}
			}
			if again := r.Promise("S2", 9, nil); again != nil {
				t.Error("a round proposed twice")
			}
		})
	}
}

func TestPaxosRoundPromiseRules(t *testing.T) {
	tx := acceptorAt("C")
	r := tx.NewRound(5)
	if r.Promise("C", 4, nil) != nil || r.Promise("S3", 5, nil) != nil {
		t.Fatal("a wrong-ballot or non-acceptor promise counted")
	}
	if r.Promise("C", 5, nil) != nil || r.Promise("C", 5, nil) != nil {
		t.Fatal("one acceptor's repeated promise made a quorum")
	}
	if r.Promise("S1", 5, nil) == nil {
		t.Fatal("no proposal at a quorum of two")
	}
	if fast := tx.NewRound(0); fast.Promise("C", 0, nil) != nil {
		t.Fatal("the fast path has no promise phase")
	}
}

func TestPaxosTally(t *testing.T) {
	all := func(v3 VoteValue) []PaxosInstanceState {
		return []PaxosInstanceState{{"C", 0, VoteYes}, {"S1", 0, VoteYes}, {"S2", 0, VoteYes}, {"S3", 0, v3}}
	}
	type ack struct {
		from   string
		ballot int
		states []PaxosInstanceState
	}
	cases := []struct {
		name     string
		override int
		acks     []ack
		decided  []bool
		commit   bool
	}{
		{
			name:    "decides at the second bundle",
			acks:    []ack{{"S1", 0, all(VoteYes)}, {"S1", 0, all(VoteYes)}, {"C", 0, all(VoteYes)}},
			decided: []bool{false, false, true},
			commit:  true,
		},
		{
			name:    "a No instance aborts",
			acks:    []ack{{"S2", 0, all(VoteNo)}, {"C", 0, all(VoteNo)}},
			decided: []bool{false, true},
		},
		{
			name: "every instance needs its own quorum",
			acks: []ack{
				{"C", 0, all(VoteYes)},
				{"S1", 0, []PaxosInstanceState{{"C", 0, VoteYes}, {"S1", 0, VoteYes}, {"S2", 0, VoteYes}}},
				{"S2", 0, []PaxosInstanceState{{"S3", 0, VoteYes}}},
			},
			decided: []bool{false, false, true},
			commit:  true,
		},
		{
			name:    "other ballots and non-acceptors do not count",
			acks:    []ack{{"C", 0, all(VoteYes)}, {"S1", 7, all(VoteYes)}, {"S3", 0, all(VoteYes)}},
			decided: []bool{false, false, false},
		},
		{
			name:     "QuorumOverride honoured",
			override: 1,
			acks:     []ack{{"C", 0, all(VoteYes)}},
			decided:  []bool{true},
			commit:   true,
		},
		{
			name:     "QuorumOverride above f+1",
			override: 3,
			acks:     []ack{{"C", 0, all(VoteYes)}, {"S1", 0, all(VoteYes)}, {"S2", 0, all(VoteYes)}},
			decided:  []bool{false, false, true},
			commit:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := acceptorAt("C")
			tx.QuorumOverride = tc.override
			r := tx.NewRound(0)
			for i, a := range tc.acks {
				commit, decided := r.Ack(a.from, a.ballot, a.states)
				if decided != tc.decided[i] {
					t.Fatalf("ack %d from %s: decided=%v, want %v", i, a.from, decided, tc.decided[i])
				}
				if decided && commit != tc.commit {
					t.Fatalf("ack %d: commit=%v, want %v", i, commit, tc.commit)
				}
			}
		})
	}
}

// FuzzPaxosAcceptor drives one acceptor with a sequence of accept,
// promise and restore inputs decoded from PaxosMeta payloads — the
// form they arrive in from the network and the log — and checks the
// acceptor's safety invariants after every step: the promise never
// falls, no instance's accepted ballot falls, the ballot-0 bundle is
// emitted at most once, and after a promise of b no accept below b
// succeeds.
func FuzzPaxosAcceptor(f *testing.F) {
	f.Add([]byte("pax1 b=0 i=C\npax1 b=0 i=S1\npax1 b=0 i=S2\npax1 b=0 i=S3\npax1 b=6\npax1 b=6 i=S3 s=S3:6:1"), []byte{0, 0, 0, 0, 1, 0})
	f.Add([]byte("pax1 b=0 s=C:0:0|S1:0:0\npax1 b=9 s=S2:5:1\npax1 b=0 i=S2"), []byte{2, 3, 0})
	f.Add([]byte("pax1 b=-3 i=S1\npax1 b=2 i=X s=:1:9"), []byte{0, 1})
	f.Fuzz(func(t *testing.T, payloads, ops []byte) {
		acc := acceptorAt("S1")
		bundles := 0
		prevAccepted := map[string]int{}
		for i, line := range splitLines(payloads) {
			meta, err := DecodePaxosMeta(line)
			if err != nil {
				continue
			}
			op := byte(i)
			if i < len(ops) {
				op = ops[i]
			}
			floor := acc.promised
			switch op % 4 {
			case 0:
				step, ok := acc.Accept(meta.Ballot, meta.Instance, VoteValue(op>>2&1))
				if ok && meta.Ballot < floor {
					t.Fatalf("accepted ballot %d below promise %d", meta.Ballot, floor)
				}
				if ok && meta.Ballot == 0 {
					bundles++
				}
				if ok && meta.Ballot == 0 && len(step.States) != len(acc.Participants) {
					t.Fatalf("bundle covers %d of %d instances", len(step.States), len(acc.Participants))
				}
			case 1:
				if _, ok := acc.Promise(meta.Ballot); ok && meta.Ballot <= floor {
					t.Fatalf("promised %d at or below promise %d", meta.Ballot, floor)
				}
			case 2:
				acc.Restore(true, meta.Ballot, meta.States)
			case 3:
				acc.Restore(false, meta.Ballot, meta.States)
			}
			if acc.promised < floor {
				t.Fatalf("promise fell from %d to %d", floor, acc.promised)
			}
			if bundles > 1 {
				t.Fatal("ballot-0 bundle emitted twice")
			}
			for _, st := range acc.States() {
				if prev, ok := prevAccepted[st.Instance]; ok && st.Ballot < prev {
					t.Fatalf("instance %s fell from ballot %d to %d", st.Instance, prev, st.Ballot)
				}
				prevAccepted[st.Instance] = st.Ballot
			}
		}
	})
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, b[start:i])
			start = i + 1
		}
	}
	return append(out, b[start:])
}
