package audit

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// feedCleanPA records a textbook PA commit over two subordinates into
// a fresh registry and returns it: coordinator 4 flows, 1 forced + 1
// lazy; each sub 2 flows, 2 forced + 1 lazy.
func feedCleanPA(tx string) *metrics.Registry {
	r := metrics.New()
	recordCleanPA(r, tx)
	r.CostNodeDone(tx, "S2")
	return r
}

// recordCleanPA records feedCleanPA's commit into r, all but S2's
// CostNodeDone: the entry stays open until S2 is done.
func recordCleanPA(r *metrics.Registry, tx string) {
	r.CostBegin(tx, "C", "PA", 2)
	for i := 0; i < 4; i++ {
		r.FlowSent("C", tx, false, false, true)
	}
	r.TxLogWrite("C", tx, true)
	r.TxLogWrite("C", tx, false)
	for _, s := range []string{"S1", "S2"} {
		r.CostSub(tx, s, "PA", false)
		r.FlowSent(s, tx, false, false, true)
		r.FlowSent(s, tx, false, false, true)
		r.TxLogWrite(s, tx, true)
		r.TxLogWrite(s, tx, true)
		r.TxLogWrite(s, tx, false)
	}
	r.CostOutcome(tx, "committed", 2)
	r.CostNodeDone(tx, "C")
	r.CostNodeDone(tx, "S1")
}

func TestConformanceCleanCommit(t *testing.T) {
	r := feedCleanPA("t1")
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() {
		t.Fatalf("clean PA commit flagged: %s", rep)
	}
	if rep.Checked != 3 || rep.Exact != 3 {
		t.Fatalf("checked=%d exact=%d, want 3/3", rep.Checked, rep.Exact)
	}
}

func TestConformanceCatchesOverspend(t *testing.T) {
	r := feedCleanPA("t1")
	// A mis-costed path: one extra forced write at a subordinate (say
	// a PA subordinate forcing its abort-presumable record anyway).
	r.TxLogWrite("S2", "t1", true)
	rep := Conformance(r.CostSnapshot())
	if rep.OK() {
		t.Fatal("extra forced write not flagged")
	}
	v := rep.Violations[0]
	if v.Node != "S2" || v.Measured.Forced != 3 {
		t.Fatalf("wrong violation: %+v", v)
	}
	if !strings.Contains(v.String(), "S2") {
		t.Fatalf("violation string: %s", v)
	}
}

func TestConformanceCatchesMissingSpend(t *testing.T) {
	// A finished commit that *under*-spends is also wrong: a flow or
	// record went missing or was misattributed.
	r := metrics.New()
	r.CostBegin("t1", "C", "PA", 1)
	r.FlowSent("C", "t1", false, false, true) // only 1 of 2 expected flows
	r.TxLogWrite("C", "t1", true)
	r.TxLogWrite("C", "t1", false)
	r.CostOutcome("t1", "committed", 1)
	r.CostNodeDone("t1", "C")
	rep := Conformance(r.CostSnapshot())
	if rep.OK() {
		t.Fatal("under-spend on a finished commit not flagged")
	}
}

func TestConformanceOpenEntriesOverrunOnly(t *testing.T) {
	r := metrics.New()
	r.CostBegin("t1", "C", "PC", 2)
	r.FlowSent("C", "t1", false, false, true) // 1 of 4: still in flight
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() {
		t.Fatalf("in-flight under-spend flagged: %s", rep)
	}
	// But an in-flight overrun is flagged immediately.
	for i := 0; i < 6; i++ {
		r.FlowSent("C", "t1", false, false, true)
	}
	rep = Conformance(r.CostSnapshot())
	if rep.OK() {
		t.Fatal("in-flight overrun not flagged")
	}
}

func TestConformanceExtraFlowsExcluded(t *testing.T) {
	r := feedCleanPA("t1")
	// Retransmissions and recovery traffic ride the Extra column and
	// must not break conformance.
	r.FlowSent("C", "t1", false, true, true)
	r.FlowSent("S1", "t1", false, true, true)
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() {
		t.Fatalf("extra-column flows broke conformance: %s", rep)
	}
}

func TestConformanceAbortUnderCeiling(t *testing.T) {
	r := metrics.New()
	r.CostBegin("t1", "C", "PA", 2)
	r.CostSub("t1", "S1", "PA", false)
	// A no-vote abort: coordinator sent 2 prepares + 2 aborts, logged
	// lazily; S1 voted no with nothing logged.
	for i := 0; i < 4; i++ {
		r.FlowSent("C", "t1", false, false, true)
	}
	r.TxLogWrite("C", "t1", false)
	r.TxLogWrite("C", "t1", false)
	r.FlowSent("S1", "t1", false, false, true)
	r.CostOutcome("t1", "aborted", 2)
	r.CostNodeDone("t1", "C")
	r.CostNodeDone("t1", "S1")
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() {
		t.Fatalf("cheap abort flagged: %s", rep)
	}
	// A PA coordinator that *forces* its abort record broke the
	// presumption: over the ceiling.
	r.TxLogWrite("C", "t1", true)
	rep = Conformance(r.CostSnapshot())
	if rep.OK() {
		t.Fatal("forced PA abort record not flagged")
	}
}

// TestConformanceVolunteerAbortExact: an abort whose coordinator sent
// no Prepare, every subordinate having volunteered, is held to
// VolunteerAbortCost: a PA coordinator's two Aborts and End and the
// prepared volunteer's vote, Prepared, Aborted and End match it
// exactly, and a Prepare on top is an overrun.
func TestConformanceVolunteerAbortExact(t *testing.T) {
	r := metrics.New()
	r.CostBegin("t1", "C", "PA", 2)
	r.CostVolunteers("t1", 2)
	r.CostSub("t1", "S1", "PA", false)
	r.FlowSent("S1", "t1", true, false, true) // the vote, in the stage reply
	r.TxLogWrite("S1", "t1", true)
	r.FlowSent("C", "t1", false, false, true) // the Aborts
	r.FlowSent("C", "t1", false, false, true)
	r.TxLogWrite("C", "t1", false) // End
	r.TxLogWrite("S1", "t1", false)
	r.TxLogWrite("S1", "t1", false)
	r.CostOutcome("t1", "aborted", -1)
	r.CostNodeDone("t1", "C")
	r.CostNodeDone("t1", "S1")
	if rep := Conformance(r.CostSnapshot()); !rep.OK() || rep.Checked != 2 || rep.Exact != 2 {
		t.Fatalf("volunteer abort: %s", rep)
	}
	r.FlowSent("C", "t1", false, false, true)
	if rep := Conformance(r.CostSnapshot()); rep.OK() {
		t.Fatal("a Prepare to a volunteer not flagged")
	}
}

func TestConformanceReadOnlySub(t *testing.T) {
	r := metrics.New()
	r.CostBegin("t1", "C", "PA", 2)
	r.CostSub("t1", "S1", "PA", false)
	r.CostSub("t1", "S2", "PA", true) // read-only voter
	// Coordinator prepares both, commits only to S1.
	for i := 0; i < 3; i++ {
		r.FlowSent("C", "t1", false, false, true)
	}
	r.TxLogWrite("C", "t1", true)
	r.TxLogWrite("C", "t1", false)
	r.FlowSent("S1", "t1", false, false, true)
	r.FlowSent("S1", "t1", false, false, true)
	r.TxLogWrite("S1", "t1", true)
	r.TxLogWrite("S1", "t1", true)
	r.TxLogWrite("S1", "t1", false)
	r.FlowSent("S2", "t1", false, false, true) // just the vote
	r.CostOutcome("t1", "committed", 1)
	for _, n := range []string{"C", "S1", "S2"} {
		r.CostNodeDone("t1", n)
	}
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() {
		t.Fatalf("read-only commit flagged: %s", rep)
	}
	if rep.Exact != 3 {
		t.Fatalf("exact=%d, want 3", rep.Exact)
	}
}

func TestConformanceSkipsUnknownRoles(t *testing.T) {
	r := metrics.New()
	// Costs with no role registration (e.g. a node only seen through
	// an unsolicited vote): skipped, not guessed at.
	r.FlowSent("X", "t1", false, false, true)
	r.CostOutcome("t1", "committed", -1)
	r.CostNodeDone("t1", "X")
	rep := Conformance(r.CostSnapshot())
	if !rep.OK() || rep.Skipped != 1 {
		t.Fatalf("unknown role handling: %s", rep)
	}
}
