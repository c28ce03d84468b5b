package protocol

import "testing"

// TestClassicRuleEdges pins the rulebook's answers that the closed
// forms do not reach: the conditions under which a record is skipped,
// the never-announced abort, the answer to a repeated delegation, the
// ack column and the inquiry answer's choice of presumption.
func TestClassicRuleEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  Decision
		want Decision
	}{
		{"read-only commit writes nothing", VariantPN.Decide(true, Round{ReadOnly: true, Logged: true}), Decision{Acked: true}},
		{"Paxos commit is lazy", VariantPaxos.Decide(true, Round{}), Decision{Write: Lazy}},
		{"1PC commit embeds the redo", Variant1PC.Decide(true, Round{Voted: true}), Decision{Write: Forced, Acked: true, Redo: true}},
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
	if Variant1PC.Delegates() || !VariantPA.Delegates() {
		t.Error("only a logless vote has nothing to delegate")
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
