package protocol

import (
	"strings"
	"testing"
)

// FuzzParseTxID checks that ParseTxID never panics and that whatever
// id it returns is stable under its own String/Parse round trip. The
// zero id is reachable only from "" and from its own canonical ":0"
// renderings — realistic-name distinctness is asserted in
// TestParseTxIDClientNamesStayDistinct.
func FuzzParseTxID(f *testing.F) {
	f.Add("A:1")
	f.Add("node-with-dashes:18446744073709551615")
	f.Add("a:b:c:3")
	f.Add("")
	f.Add(":")
	f.Add(":0")
	f.Add("no-colon")
	f.Add("trailing:")
	f.Fuzz(func(t *testing.T, s string) {
		id := ParseTxID(s) // must not panic
		if s == "" && id != (TxID{}) {
			t.Fatalf("empty name must map to the zero id, got %v", id)
		}
		back := ParseTxID(id.String())
		if back != id {
			t.Fatalf("round trip: %q -> %v -> %v", s, id, back)
		}
	})
}

// TestParseTxIDClientNamesStayDistinct is the regression for the v1
// data plane: client-chosen transaction names need not look like
// "origin:seq", and two different names must never map to the same
// id — resources key staged writes and lock ownership by TxID, so a
// shared fallback would fuse unrelated transactions (observed as a
// PC-variant reader aborting on its predecessor's prepared state).
func TestParseTxIDClientNamesStayDistinct(t *testing.T) {
	names := []string{
		"w1", "r1", "transfer-1", "check-1", "sample-bad",
		"load-77-123", "a:b", "trailing:", ":",
		"C.1754611200000000000.7", // the daemon's generated shape
	}
	seen := map[TxID]string{}
	for _, name := range names {
		id := ParseTxID(name)
		if id == (TxID{}) {
			t.Errorf("ParseTxID(%q) collapsed to the zero id", name)
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("ParseTxID(%q) and ParseTxID(%q) share id %v", name, prev, id)
		}
		seen[id] = name
	}
	if got := ParseTxID("S1:42"); got != (TxID{Origin: "S1", Seq: 42}) {
		t.Errorf("well-formed id parsed as %v", got)
	}
}

var sinkTxString string

// TestTxIDStringAllocs guards TxID.String on the staging path: the
// rendered id is its one allocation. Seq is large, so formatting the
// number on its own would show as a second allocation.
func TestTxIDStringAllocs(t *testing.T) {
	id := TxID{Origin: "A.1729000000000000000", Seq: 123456789}
	if allocs := testing.AllocsPerRun(100, func() { sinkTxString = id.String() }); allocs != 1 {
		t.Fatalf("TxID.String allocates %.0f times, want 1", allocs)
	}
	if sinkTxString != "A.1729000000000000000:123456789" {
		t.Fatalf("TxID.String = %q", sinkTxString)
	}
	long := TxID{Origin: NodeID(strings.Repeat("o", 100)), Seq: 7}
	if got := long.String(); got != strings.Repeat("o", 100)+":7" {
		t.Fatalf("long origin renders as %q", got)
	}
}
