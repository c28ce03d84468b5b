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
		if got, ok := VariantByPresumeName(w.v.Row().PresumeName); !ok || got != w.v {
			t.Errorf("%v: VariantByPresumeName(%q) = %v, %v", w.v, w.v.Row().PresumeName, got, ok)
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
	if bad := Variant(200); bad.Row().Name != "Basic2PC" || bad.String() != "Variant(200)" {
		t.Errorf("out-of-range variant: Row %q, String %q", bad.Row().Name, bad.String())
	}
}

// TestVariantTableMatchesClosedForms derives each role's forced writes
// and flows from the table's columns and holds them to the analytic
// package's hand-written closed forms, so the table the engines read
// stays pinned to an independent statement of the paper's accounting.
//
//	commit, coordinator: forced 1 (commit record) + pre-prepare;
//	  writes 2 (+ pre-prepare); flows 2 per subordinate.
//	commit, subordinate: forced (1 - logless) (Prepared) +
//	  forces-Committed; writes 3 - logless; flows 1 (vote) +
//	  ack-on-commit.
//	abort ceilings: the same, with the coordinator's abort record
//	  forced and the subordinate's Aborted forced and acknowledged
//	  exactly when aborts are acknowledged.
//
// Paxos Commit has its own round structure and closed forms; the
// table states only what it forces and acknowledges.
func TestVariantTableMatchesClosedForms(t *testing.T) {
	btoi := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range []Variant{VariantBaseline, VariantPA, VariantPN, VariantPC, Variant1PC} {
		r := v.Row()
		pre := btoi(r.PrePrepare != "")
		logless := btoi(r.LoglessVote)
		for subs := 1; subs <= 4; subs++ {
			commit, ok := analytic.CommitCostByRole(v.String(), subs)
			if !ok {
				t.Fatalf("%v: no commit closed form", v)
			}
			want := analytic.RoleCost{
				Coordinator: analytic.Triplet{Flows: 2 * subs, Writes: 2 + pre, Forced: 1 + pre},
				Subordinate: analytic.Triplet{Flows: 1 + btoi(r.AckCommit), Writes: 3 - logless, Forced: 1 - logless + btoi(r.SubForcesCommitted)},
			}
			if commit != want {
				t.Errorf("%v subs=%d commit: table derives %+v, closed form %+v", v, subs, want, commit)
			}
			abort, ok := analytic.AbortCostBoundByRole(v.String(), subs)
			if !ok {
				t.Fatalf("%v: no abort closed form", v)
			}
			want = analytic.RoleCost{
				Coordinator: analytic.Triplet{Flows: 2 * subs, Writes: 2 + pre, Forced: btoi(r.AckAbort) + pre},
				Subordinate: analytic.Triplet{Flows: 1 + btoi(r.AckAbort), Writes: 3 - logless, Forced: 1 - logless + btoi(r.SubForces(false))},
			}
			if abort != want {
				t.Errorf("%v subs=%d abort: table derives %+v, closed form %+v", v, subs, want, abort)
			}
		}
	}
	// The remaining columns, row by row: the presumption and where
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
		if r := tc.v.Row(); r.NoInfo != tc.noInfo || r.PropagateHeuristics != tc.propagate {
			t.Errorf("%v: NoInfo %v, PropagateHeuristics %v; want %v, %v", tc.v, r.NoInfo, r.PropagateHeuristics, tc.noInfo, tc.propagate)
		}
	}
	// Paxos Commit acknowledges nothing, and its votes are forced.
	if r := VariantPaxos.Row(); r.AcksAny() || r.SubForces(true) || r.SubForces(false) || r.PrePrepare != "" || r.LoglessVote {
		t.Errorf("Paxos row %+v: acks or forces an outcome, or votes logless", r)
	}
}
