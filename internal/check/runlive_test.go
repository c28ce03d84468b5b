package check

import (
	"testing"

	"repro/internal/trace"
)

// TestTracedOutcomesSinceRestart: the outcomes a node traced count as
// known only from its latest restart on — a decision its crashed
// incarnation made may not have been durable.
func TestTracedOutcomesSinceRestart(t *testing.T) {
	events := []trace.Event{
		{Node: "C", Kind: trace.KindDecision, Tx: "C:1", Detail: "commit(C:1)"},
		{Node: "S1", Kind: trace.KindDecision, Tx: "C:1", Detail: "commit(C:1)"},
		{Node: "S1", Kind: trace.KindError, Detail: "crash"},
		{Node: "S1", Kind: trace.KindError, Detail: "restart"},
		{Node: "S1", Kind: trace.KindDecision, Tx: "C:2", Detail: "abort(C:2)"},
	}
	got := tracedOutcomes(events)
	if c, ok := got["C"]["C:1"]; !ok || !c {
		t.Fatalf("C's commit of C:1 not folded: %v", got["C"])
	}
	if _, ok := got["S1"]["C:1"]; ok {
		t.Fatal("S1's decision before its restart was folded")
	}
	if c, ok := got["S1"]["C:2"]; !ok || c {
		t.Fatalf("S1's abort of C:2 after its restart not folded: %v", got["S1"])
	}
}
