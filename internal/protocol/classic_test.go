package protocol

import "testing"

// TestClassicRuleEdges pins the rulebook's answers that the closed
// forms do not reach: the conditions under which a record is skipped,
// the never-announced abort, the answer to a repeated delegation, the
// ack column, who answers before the commit acks, and the inquiry
// answer's choice of presumption.
func TestClassicRuleEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  Decision
		want Decision
	}{
		{"read-only commit writes nothing", VariantPN.Decide(true, Round{ReadOnly: true, Logged: true}), Decision{Acked: true}},
		{"Paxos commit is lazy", VariantPaxos.Decide(true, Round{}), Decision{Write: Lazy}},
		{"1PC commit embeds the redo", Variant1PC.Decide(true, Round{Voted: true}), Decision{Write: Forced, Acked: true, Redo: true, Early: true}},
		{"presumed abort writes nothing", VariantPA.Decide(false, Round{Voted: true}), Decision{}},
		{"presumed abort after a delegation record is forced", VariantPA.Decide(false, Round{Logged: true, Voted: true}), Decision{Write: Forced}},
		{"an abort nothing depends on writes nothing", VariantBaseline.Decide(false, Round{}), Decision{Acked: true}},
		{"a logged abort is forced when acked", VariantPC.Decide(false, Round{Logged: true}), Decision{Write: Forced, Acked: true}},
		{"a voted abort is forced when acked", VariantBaseline.Decide(false, Round{Voted: true}), Decision{Write: Forced, Acked: true}},
		{"a Paxos abort is lazy", VariantPaxos.Decide(false, Round{Voted: true}), Decision{Write: Lazy}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		got  Applied
		want Applied
	}{
		{"PC commit is lazy and unacked", VariantPC.Apply(true, true, true), Applied{Write: Lazy}},
		{"PA abort is lazy and unacked", VariantPA.Apply(false, true, true), Applied{Write: Lazy}},
		{"an abort with nothing to undo writes nothing", VariantBaseline.Apply(false, false, true), Applied{Ack: true}},
		{"a never-announced abort is acked under PA", VariantPA.Apply(false, false, false), Applied{Write: Lazy, Ack: true}},
		{"a never-announced abort is forced under PN", VariantPN.Apply(false, false, false), Applied{Write: Forced, Ack: true}},
		{"a forgotten logless commit is installed and acked", Variant1PC.Apply(true, false, false), Applied{Write: Lazy, Ack: true}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
	for v, want := range map[Variant]bool{VariantBaseline: false, VariantPA: true, VariantPN: false, VariantPC: false} {
		if v.AbortsRepeat() != want {
			t.Errorf("%v: a repeated delegation finding nothing aborts = %v, want %v", v, !want, want)
		}
	}
	for _, v := range []Variant{VariantBaseline, VariantPA, VariantPN, VariantPC, VariantPaxos, Variant1PC} {
		for _, commit := range []bool{true, false} {
			if a, d := v.Apply(commit, true, true).Ack, v.Decide(commit, Round{Voted: true}).Acked; v.Acks(commit) != a || a != d {
				t.Errorf("%v commit=%v: Acks %v, Apply acks %v, Decide acked %v", v, commit, v.Acks(commit), a, d)
			}
		}
	}
	// A commit's owner answers before its acks when they carry nothing
	// the caller is told: everywhere acks exist but PN, whose acks carry
	// heuristic reports to the root. An abort is never answered early.
	for v, want := range map[Variant]bool{VariantBaseline: true, VariantPA: true, VariantPN: false,
		VariantPC: false, VariantPaxos: false, Variant1PC: true} {
		for _, rd := range []Round{{Voted: true}, {Logged: true, Voted: true}, {ReadOnly: true}} {
			if got := v.Decide(true, rd).Early; got != want {
				t.Errorf("%v commit %+v: answered before the acks = %v, want %v", v, rd, got, want)
			}
			if v.Decide(false, rd).Early {
				t.Errorf("%v abort %+v: answered before the acks", v, rd)
			}
		}
	}
	// The outcome goes to whoever may be prepared; a read-only voter
	// left at its vote.
	for _, tc := range []struct {
		vote  VoteValue
		voted bool
		want  bool
	}{{VoteYes, true, true}, {VoteNo, true, true}, {VoteReadOnly, true, false}, {VoteReadOnly, false, true}, {VoteYes, false, true}} {
		if got := HearsOutcome(tc.vote, tc.voted); got != tc.want {
			t.Errorf("HearsOutcome(%v, voted %v) = %v, want %v", tc.vote, tc.voted, got, tc.want)
		}
	}
	if Variant1PC.Delegates() || !VariantPA.Delegates() {
		t.Error("only a logless vote has nothing to delegate")
	}
	// A vote may ride the last work reply only where nothing is forced
	// before a subordinate prepares and the vote is a classic one.
	for v, want := range map[Variant]bool{VariantBaseline: true, VariantPA: true, VariantPN: false,
		VariantPC: false, VariantPaxos: false, Variant1PC: false, Variant(99): false} {
		if got := v.Unsolicited(); got != want {
			t.Errorf("%v: Unsolicited = %v, want %v", v, got, want)
		}
	}
	if got := Variant1PC.SubPrepare(false); !got.Prepared {
		t.Error("a cascaded 1PC voter must still force Prepared")
	}
	for _, tc := range []struct {
		k          Knowledge
		asked, own Variant
		want       OutcomeKind
	}{
		{KnowsCommit, VariantPA, VariantPA, OutcomeCommit},
		{KnowsAbort, VariantPC, VariantPC, OutcomeAbort},
		{KnowsUndecided, VariantPA, VariantPA, OutcomeInProgress},
		{KnowsNothing, VariantPC, VariantPA, OutcomeCommit},
		{KnowsNothing, VariantBaseline, VariantPA, OutcomeAbort}, // the zero byte announces none
		{KnowsNothing, VariantBaseline, VariantBaseline, OutcomeUnknown},
	} {
		if got := Answer(tc.k, tc.asked, tc.own); got != tc.want {
			t.Errorf("Answer(%d, %v, %v) = %v, want %v", tc.k, tc.asked, tc.own, got, tc.want)
		}
	}
	for kind, want := range map[string]Variant{"Pending": VariantPN, "Collecting": VariantPC} {
		if v, ok := VariantByPrePrepare(kind); !ok || v != want {
			t.Errorf("VariantByPrePrepare(%q) = %v, %v", kind, v, ok)
		}
	}
	if _, ok := VariantByPrePrepare(""); ok {
		t.Error("an empty kind maps to a variant")
	}
}
