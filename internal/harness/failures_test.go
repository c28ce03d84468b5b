package harness

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

func TestFailureMatrixConsistency(t *testing.T) {
	cells, err := FailureMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20 { // 4 variants × 5 crash points
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		// Atomicity must hold in every cell regardless of variant.
		if !c.Consistent {
			t.Errorf("%v/%v: INCONSISTENT (root %v, sub %v)",
				c.Variant, c.Point, c.RootResult, c.SubResult)
		}
	}
}

func TestFailureMatrixVariantDifferences(t *testing.T) {
	cells, err := FailureMatrix()
	if err != nil {
		t.Fatal(err)
	}
	find := func(v protocol.Variant, p CrashPoint) FailureOutcome {
		for _, c := range cells {
			if c.Variant == v && c.Point == p {
				return c
			}
		}
		t.Fatalf("cell %v/%v missing", v, p)
		return FailureOutcome{}
	}

	// PA, PN, and PC never leave the subordinate blocked after recovery.
	for _, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		for p := CrashSubBeforeVote; p <= CrashSubAfterCommit; p++ {
			if c := find(v, p); c.SubBlocked {
				t.Errorf("%v/%v: subordinate blocked despite presumption/pending recovery", v, p)
			}
		}
	}

	// Baseline: the coordinator crash before its decision leaves no
	// record; the restarted coordinator cannot answer and the prepared
	// subordinate stays blocked — the classic weakness.
	base := find(protocol.VariantBaseline, CrashCoordBeforeDecision)
	if !base.SubBlocked {
		t.Errorf("baseline coord-amnesia cell: sub not blocked (blocked=%v, sub=%v)",
			base.SubBlocked, base.SubResult)
	}
}

func TestRenderFailureMatrix(t *testing.T) {
	cells, err := FailureMatrix()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFailureMatrix(cells)
	for _, frag := range []string{"Basic2PC", "PA", "PN", "in doubt", "consistent"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}
