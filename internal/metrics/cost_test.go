package metrics

import (
	"fmt"
	"testing"
)

func TestCostLedgerAttribution(t *testing.T) {
	r := New()
	r.CostBegin("t1", "C", "PA", 2)
	r.CostSub("t1", "S1", "PA", false)
	r.CostSub("t1", "S2", "PA", false)

	// Coordinator: 2 prepares + 2 commits, 1 forced + 1 lazy write.
	for i := 0; i < 4; i++ {
		r.FlowSent("C", "t1", false, false, true)
	}
	r.TxLogWrite("C", "t1", true)
	r.TxLogWrite("C", "t1", false)
	// Each sub: vote + ack (ack piggybacked), 2 forced + 1 lazy.
	for _, s := range []string{"S1", "S2"} {
		r.FlowSent(s, "t1", false, false, true)
		r.FlowSent(s, "t1", true, false, true)
		r.TxLogWrite(s, "t1", true)
		r.TxLogWrite(s, "t1", true)
		r.TxLogWrite(s, "t1", false)
	}
	// One retransmission: counted extra, not a flow.
	r.FlowSent("C", "t1", false, true, true)

	r.CostOutcome("t1", "committed", 2)
	for _, n := range []string{"C", "S1", "S2"} {
		r.CostNodeDone("t1", n)
	}

	views := r.CostSnapshot()
	if len(views) != 1 {
		t.Fatalf("CostSnapshot: %d entries, want 1", len(views))
	}
	v := views[0]
	if v.Variant != "PA" || v.Subs != 2 || v.Delivered != 2 || v.Outcome != "committed" {
		t.Fatalf("tx header: %+v", v)
	}
	if !v.Closed() {
		t.Fatalf("tx not closed: %+v", v)
	}
	c := v.Node("C")
	if c.Role != RoleCoordinator || c.Flows != 4 || c.Extra != 1 || c.Forced != 1 || c.NonForced != 1 {
		t.Fatalf("coordinator counters: %+v", c)
	}
	s1 := v.Node("S1")
	if s1.Role != RoleSubordinate || s1.Flows != 2 || s1.Piggybacked != 1 || s1.Forced != 2 || s1.NonForced != 1 {
		t.Fatalf("subordinate counters: %+v", s1)
	}
	total := v.Total()
	if total.Flows != 8 || total.Forced != 5 || total.NonForced != 3 {
		t.Fatalf("total: %+v", total)
	}

	// The per-node aggregate counters were fed by the same calls.
	if got := r.Node("C").MessagesSent; got != 5 {
		t.Fatalf("C MessagesSent = %d, want 5", got)
	}
	if got := r.Node("S1").PacketsSent; got != 1 {
		t.Fatalf("S1 PacketsSent = %d, want 1 (one piggybacked)", got)
	}
	if got := r.Total(); got.Writes != 8 || got.Forced != 5 {
		t.Fatalf("registry total triplet: %+v", got)
	}
}

func TestCostDrainClosed(t *testing.T) {
	r := New()
	r.CostBegin("done", "C", "PC", 1)
	r.FlowSent("C", "done", false, false, true)
	r.CostOutcome("done", "committed", 1)
	r.CostNodeDone("done", "C")

	r.CostBegin("open", "C", "PC", 1)
	r.FlowSent("C", "open", false, false, true)

	drained := r.CostDrainClosed()
	if len(drained) != 1 || drained[0].Tx != "done" {
		t.Fatalf("drained %+v, want just 'done'", drained)
	}
	if n := r.CostLedgerSize(); n != 1 {
		t.Fatalf("ledger size after drain = %d, want 1", n)
	}
	if again := r.CostDrainClosed(); len(again) != 0 {
		t.Fatalf("second drain returned %+v", again)
	}
}

func TestCostLedgerCap(t *testing.T) {
	r := New()
	for i := 0; i < costCap+10; i++ {
		tx := fmt.Sprintf("t%d", i)
		r.CostBegin(tx, "C", "PA", 1)
		r.CostOutcome(tx, "committed", 1)
		r.CostNodeDone(tx, "C")
	}
	if n := r.CostLedgerSize(); n > costCap {
		t.Fatalf("ledger grew past cap: %d > %d", n, costCap)
	}
	// The oldest entries were the ones evicted.
	for _, v := range r.CostSnapshot() {
		if v.Tx == "t0" {
			t.Fatal("t0 survived eviction")
		}
	}
}

func TestAggregateCosts(t *testing.T) {
	r := New()
	r.CostBegin("a", "C", "PA", 1)
	r.CostSub("a", "S", "PA", false)
	r.FlowSent("C", "a", false, false, true)
	r.FlowSent("S", "a", false, false, true)
	r.CostOutcome("a", "committed", 1)
	r.CostBegin("b", "C", "PA", 1)
	r.FlowSent("C", "b", false, false, true)

	agg := AggregateCosts(r.CostSnapshot())
	ck := AggregateCostKey{Variant: "PA", Role: RoleCoordinator, Outcome: "committed"}
	if got := agg[ck]; got.Counters.Flows != 1 || got.Nodes != 1 {
		t.Fatalf("coordinator committed bucket: %+v", got)
	}
	ok := AggregateCostKey{Variant: "PA", Role: RoleCoordinator, Outcome: "open"}
	if got := agg[ok]; got.Counters.Flows != 1 {
		t.Fatalf("open bucket: %+v", got)
	}
}

func TestExtraFlowForUntrackedTxDoesNotLeak(t *testing.T) {
	r := New()
	// An inquiry answered by presumption sends an extra flow for a
	// transaction this node never began, voted on, or logged for. No
	// ledger entry may appear: nothing would ever close it.
	r.FlowSent("S1", "ghost", false, true, true)
	if n := r.CostLedgerSize(); n != 0 {
		t.Fatalf("extra flow for untracked tx created %d ledger entries", n)
	}
	// Node-level message accounting still counts it.
	if snap := r.Snapshot(); snap.Nodes["S1"].MessagesSent != 1 {
		t.Fatalf("node counters lost the extra flow: %+v", snap.Nodes["S1"])
	}
	// Extras against a tracked transaction still attribute.
	r.CostSub("t1", "S1", "PA", false)
	r.FlowSent("S1", "t1", false, true, true)
	views := r.CostSnapshot()
	if len(views) != 1 || views[0].Node("S1").Extra != 1 {
		t.Fatalf("tracked-tx extra not attributed: %+v", views)
	}
}

// closeTx records a one-node transaction and closes it.
func closeTx(r *Registry, tx string) {
	r.CostBegin(tx, "C", "PA", 1)
	r.CostOutcome(tx, "committed", 1)
	r.CostNodeDone(tx, "C")
}

func drainedTxs(views []TxCostView) []string {
	var out []string
	for _, v := range views {
		if !v.Closed() {
			panic("drained an open entry: " + v.Tx)
		}
		out = append(out, v.Tx)
	}
	return out
}

// TestCostDrainClosedCloseOrder checks the drain hands entries over in
// the order they closed, not the order they were recorded, and leaves
// open entries (including one a late node reopened) in the ledger.
func TestCostDrainClosedCloseOrder(t *testing.T) {
	r := New()
	for _, tx := range []string{"a", "b", "c", "d"} {
		r.CostBegin(tx, "C", "PA", 1)
	}
	// Close in the order c, a, d; b stays open.
	for _, tx := range []string{"c", "a", "d"} {
		r.CostOutcome(tx, "committed", 1)
		r.CostNodeDone(tx, "C")
	}
	// A subordinate's cost lands on d after it closed: d reopens.
	r.FlowSent("S", "d", false, false, true)
	got := drainedTxs(r.CostDrainClosed())
	if fmt.Sprint(got) != "[c a]" {
		t.Fatalf("drained %v, want [c a]", got)
	}
	if n := r.CostLedgerSize(); n != 2 {
		t.Fatalf("ledger holds %d entries after drain, want 2 (b and d)", n)
	}
	// d closes again once S finishes; b closes after it.
	r.CostNodeDone("d", "S")
	r.CostOutcome("b", "aborted", -1)
	r.CostNodeDone("b", "C")
	views := r.CostDrainClosed()
	if got := drainedTxs(views); fmt.Sprint(got) != "[d b]" {
		t.Fatalf("second drain %v, want [d b]", got)
	}
	if d := views[0]; len(d.Nodes) != 2 || d.Node("S").Flows != 1 || d.Node("C").Role != RoleCoordinator {
		t.Fatalf("view of d = %+v", d)
	}
	if n := r.CostLedgerSize(); n != 0 {
		t.Fatalf("ledger holds %d entries, want 0", n)
	}
	if again := r.CostDrainClosed(); len(again) != 0 {
		t.Fatalf("third drain returned %+v", again)
	}
}

// TestCostDrainAfterEviction fills the ledger past costCap: eviction
// takes the entries that closed first, and the drain returns exactly
// the closed survivors, in close order, with open entries kept.
func TestCostDrainAfterEviction(t *testing.T) {
	r := New()
	r.CostBegin("open", "C", "PA", 1)
	for i := 0; i < costCap+10; i++ {
		closeTx(r, fmt.Sprintf("t%d", i))
	}
	if n := r.CostLedgerSize(); n != costCap {
		t.Fatalf("ledger holds %d entries, want %d", n, costCap)
	}
	got := drainedTxs(r.CostDrainClosed())
	if len(got) != costCap-1 {
		t.Fatalf("drained %d entries, want %d", len(got), costCap-1)
	}
	if got[0] != "t11" || got[len(got)-1] != fmt.Sprintf("t%d", costCap+9) {
		t.Fatalf("drained %s..%s, want t11..t%d", got[0], got[len(got)-1], costCap+9)
	}
	for i := 1; i < len(got); i++ {
		var a, b int
		fmt.Sscanf(got[i-1], "t%d", &a)
		fmt.Sscanf(got[i], "t%d", &b)
		if b != a+1 {
			t.Fatalf("drain out of close order at %d: %s then %s", i, got[i-1], got[i])
		}
	}
	if n := r.CostLedgerSize(); n != 1 {
		t.Fatalf("ledger holds %d entries after drain, want the open one", n)
	}
	// With nothing closed, eviction falls back to the oldest entry.
	for i := 0; i < costCap; i++ {
		r.CostBegin(fmt.Sprintf("o%d", i), "C", "PA", 1)
	}
	for _, v := range r.CostSnapshot() {
		if v.Tx == "open" {
			t.Fatal("oldest open entry survived eviction of an all-open ledger")
		}
	}
}

// TestReadOnlyVoteClosesWithoutOutcome: a daemon's entry holding only
// its read-only vote closes at the vote, with no outcome, and a second
// vote, the answer to a retransmitted Prepare its voter could not
// recognize, is an extra flow. An entry holding any other role still
// waits for the outcome.
func TestReadOnlyVoteClosesWithoutOutcome(t *testing.T) {
	r := New()
	vote := func() {
		r.CostSub("ro", "S", "PA", true)
		r.FlowSent("S", "ro", false, false, true)
		r.CostNodeDone("ro", "S")
	}
	vote()
	vote()
	r.CostSub("yes", "S", "PA", false)
	r.FlowSent("S", "yes", false, false, true)
	r.CostNodeDone("yes", "S")

	drained := r.CostDrainClosed()
	if len(drained) != 1 || drained[0].Tx != "ro" || drained[0].Outcome != "" || !drained[0].Closed() {
		t.Fatalf("drained %+v, want the read-only entry alone, closed without an outcome", drained)
	}
	if n := drained[0].Node("S"); n.Flows != 1 || n.Extra != 1 || n.Role != RoleReadOnly {
		t.Fatalf("read-only voter %+v, want 1 flow and 1 extra", n)
	}
	if n := r.CostLedgerSize(); n != 1 {
		t.Fatalf("ledger holds %d entries, want the yes-voter's open one", n)
	}
	agg := AggregateCosts(drained)
	if got := agg[AggregateCostKey{Variant: "PA", Role: RoleReadOnly, Outcome: "unknown"}]; got.Nodes != 1 {
		t.Fatalf("read-only bucket %+v, want one node under outcome unknown", got)
	}
}
