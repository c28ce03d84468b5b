package protocol

import (
	"strings"
	"testing"

	"repro/internal/analytic"
)

// TestVariantWireBytesAndNames pins what leaves the process: the
// Presume byte a Prepare carries, and the name /varz prints and
// ParseVariant reads back.
func TestVariantWireBytesAndNames(t *testing.T) {
	want := []struct {
		v    Variant
		wire byte
		name string
	}{
		{VariantBaseline, 0, "Basic2PC"},
		{VariantPA, 1, "PA"},
		{VariantPN, 2, "PN"},
		{VariantPC, 3, "PC"},
		{VariantPaxos, 4, "PaxosCommit"},
		{Variant1PC, 5, "1PC"},
	}
	if len(want) != len(variantTable) {
		t.Fatalf("table has %d rows, test pins %d", len(variantTable), len(want))
	}
	c := NewBinaryCodec()
	for _, w := range want {
		frame, err := c.AppendFrame(nil, Packet{Messages: []Message{{Type: MsgPrepare, Presume: w.v}}})
		if err != nil {
			t.Fatal(err)
		}
		// 4-byte length, version, empty From and To, message count,
		// then Type, flags, Presume.
		if got := frame[10]; got != w.wire {
			t.Errorf("%v: wire Presume byte %d, want %d", w.v, got, w.wire)
		}
		pkt, err := c.DecodeFrame(frame[4:])
		if err != nil || pkt.Messages[0].Presume != w.v {
			t.Errorf("%v: decoded %+v, %v", w.v, pkt, err)
		}
		if got, ok := VariantByPresumeName(w.v.PresumeName()); !ok || got != w.v {
			t.Errorf("%v: VariantByPresumeName(%q) = %v, %v", w.v, w.v.PresumeName(), got, ok)
		}
		if got := w.v.String(); got != w.name {
			t.Errorf("%d: String() = %q, want %q", w.wire, got, w.name)
		}
		for _, name := range []string{w.name, strings.ToLower(w.name), strings.ToUpper(w.name)} {
			if got, ok := ParseVariant(name); !ok || got != w.v {
				t.Errorf("ParseVariant(%q) = %v, %v; want %v", name, got, ok, w.v)
			}
		}
	}
	for name, v := range map[string]Variant{
		"basic": VariantBaseline, "baseline": VariantBaseline, "2pc": VariantBaseline,
		"paxos": VariantPaxos, "onephase": Variant1PC,
	} {
		if got, ok := ParseVariant(name); !ok || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", name, got, ok, v)
		}
	}
	for _, name := range []string{"", "pq", "presumeabort", "3pc"} {
		if _, ok := ParseVariant(name); ok {
			t.Errorf("ParseVariant(%q) accepted", name)
		}
	}
	// A corrupt wire byte runs under the baseline's rules but keeps its
	// own name in traces.
	if bad := Variant(200); bad.row().name != "Basic2PC" || bad.String() != "Variant(200)" {
		t.Errorf("out-of-range variant: row %q, String %q", bad.row().name, bad.String())
	}
}

// TestVariantTableMatchesClosedForms runs each role's commit and
// abort through the classic-round rulebook — the steps both engines
// execute — and holds the flows, writes and forces those steps add up
// to against the analytic package's hand-written closed forms, so the
// rules stay pinned to an independent statement of the paper's
// accounting. The closed forms are the runtime's (PN's subordinate
// folds AgentPending into Prepared, analytic.PNLive), so the one
// record only the simulator writes is not counted.
//
//	coordinator: the pre-prepare record, Prepares to every
//	  subordinate, the decision record (Decide), the outcome to every
//	  subordinate, and a lazy End;
//	subordinate (a leaf): the prepare record (SubPrepare), the vote,
//	  the outcome record and the ack (Apply), and a lazy End.
//
// Commits must match exactly, and so must aborts, less one write under
// a presumed abort: the abort ceiling charges it the lazy record the
// rules never write.
//
// Paxos Commit has its own round structure and closed forms; the
// rules state only what it forces and acknowledges.
func TestVariantTableMatchesClosedForms(t *testing.T) {
	count := func(tr *analytic.Triplet, w Write) {
		if w != NoWrite {
			tr.Writes++
		}
		if w == Forced {
			tr.Forced++
		}
	}
	btoi := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	roles := func(v Variant, subs int, commit bool) analytic.RoleCost {
		var rc analytic.RoleCost
		c, s := &rc.Coordinator, &rc.Subordinate
		if v.PrePrepare() != "" {
			count(c, Forced)
		}
		c.Flows += subs // Prepares
		count(c, v.Decide(commit, Round{Logged: v.PrePrepare() != "", Voted: true}).Write)
		c.Flows += subs // outcomes
		count(c, Lazy)  // End

		if v.SubPrepare(true).Prepared {
			count(s, Forced)
		}
		s.Flows++ // the yes vote
		a := v.Apply(commit, true, true)
		count(s, a.Write)
		s.Flows += btoi(a.Ack)
		count(s, Lazy) // End
		return rc
	}
	for _, v := range []Variant{VariantBaseline, VariantPA, VariantPN, VariantPC, Variant1PC} {
		for subs := 1; subs <= 4; subs++ {
			commit, ok := analytic.CommitCostByRole(v.String(), subs)
			if !ok {
				t.Fatalf("%v: no commit closed form", v)
			}
			if got := roles(v, subs, true); got != commit {
				t.Errorf("%v subs=%d commit: the rules add up to %+v, closed form %+v", v, subs, got, commit)
			}
			ceil, ok := analytic.AbortCostBoundByRole(v.String(), subs)
			if !ok {
				t.Fatalf("%v: no abort closed form", v)
			}
			// The ceiling charges a presumed abort the lazy record the
			// rules never write; every other row writes it.
			want := ceil
			want.Coordinator.Writes -= btoi(Answer(KnowsNothing, v, v) == OutcomeAbort)
			if got := roles(v, subs, false); got != want {
				t.Errorf("%v subs=%d abort: the rules add up to %+v, want %+v (ceiling %+v)", v, subs, got, want, ceil)
			}
		}
	}
	// The remaining rules, variant by variant: the presumption and where
	// heuristic reports stop.
	for _, tc := range []struct {
		v         Variant
		noInfo    OutcomeKind
		propagate bool
	}{
		{VariantBaseline, OutcomeUnknown, false},
		{VariantPA, OutcomeAbort, false},
		{VariantPN, OutcomeInProgress, true},
		{VariantPC, OutcomeCommit, false},
		{VariantPaxos, OutcomeUnknown, false},
		{Variant1PC, OutcomeAbort, false},
	} {
		if got := Answer(KnowsNothing, tc.v, tc.v); got != tc.noInfo || tc.v.HeuristicsToRoot() != tc.propagate {
			t.Errorf("%v: presumption %v, heuristics to root %v; want %v, %v", tc.v, got, tc.v.HeuristicsToRoot(), tc.noInfo, tc.propagate)
		}
	}
	// Paxos Commit acknowledges nothing, forces no outcome record, and
	// forces its votes.
	for _, commit := range []bool{true, false} {
		if a := VariantPaxos.Apply(commit, true, true); a.Ack || a.Write == Forced {
			t.Errorf("Paxos applies commit=%v as %+v: acks or forces an outcome", commit, a)
		}
		if d := VariantPaxos.Decide(commit, Round{Logged: true, Voted: true}); d.Acked || d.Write == Forced {
			t.Errorf("Paxos decides commit=%v as %+v: acks or forces an outcome", commit, d)
		}
	}
	if VariantPaxos.PrePrepare() != "" || !VariantPaxos.SubPrepare(true).Prepared {
		t.Error("Paxos forces a pre-prepare record, or votes logless")
	}
}
