package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/protocol"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{N: 10, Depth: 3, ReadFraction: 0.4, Seed: 7})
	b := Generate(Spec{N: 10, Depth: 3, ReadFraction: 0.4, Seed: 7})
	if len(a.Members) != len(b.Members) {
		t.Fatal("non-deterministic size")
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("member %d differs: %+v vs %+v", i, a.Members[i], b.Members[i])
		}
	}
}

func TestGenerateRespectsSize(t *testing.T) {
	for _, n := range []int{2, 5, 11, 30} {
		tr := Generate(Spec{N: n, Seed: 1})
		if tr.Size() != n {
			t.Errorf("N=%d: size %d", n, tr.Size())
		}
	}
	// Degenerate spec is clamped.
	if tr := Generate(Spec{N: 0}); tr.Size() != 2 {
		t.Errorf("clamped size = %d", tr.Size())
	}
}

func TestGenerateFlatDepth(t *testing.T) {
	tr := Generate(Spec{N: 12, Depth: 1, Seed: 3})
	for _, m := range tr.Members {
		if m.Parent != tr.Root {
			t.Fatalf("flat tree has non-root parent: %+v", m)
		}
	}
}

func TestGenerateDeepTreesCascade(t *testing.T) {
	tr := Generate(Spec{N: 30, Depth: 4, Seed: 5})
	cascaded := false
	for _, m := range tr.Members {
		if m.Parent != tr.Root {
			cascaded = true
		}
	}
	if !cascaded {
		t.Fatal("depth-4 tree never cascaded (suspicious for N=30)")
	}
}

func TestBuildAndCommit(t *testing.T) {
	tr := Generate(Spec{N: 8, Depth: 2, ReadFraction: 0.5, Seed: 11})
	eng, tx, err := tr.Build(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := tx.Commit(tr.Root)
	if res.Outcome != core.OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	if eng.Metrics().Total().Flows == 0 {
		t.Fatal("no traffic measured")
	}
}

func TestTravelBookingCommit(t *testing.T) {
	eng, tx, err := TravelBooking{ReadOnlyCar: true}.Build(
		core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("agency")
	if res.Outcome != core.OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	// The read-only car server stayed out of phase two.
	if c := eng.Metrics().Node("car"); c.MessagesSent != 1 {
		t.Errorf("car flows = %d, want 1", c.MessagesSent)
	}
	// The payments processor below the hotel committed.
	if o, ok := eng.OutcomeAt("payments", tx.ID()); !ok || o != core.OutcomeCommitted {
		t.Errorf("payments outcome = %v,%v", o, ok)
	}
}

// Property: every generated tree commits atomically under every
// variant — all updaters see commit; nothing errors.
func TestQuickGeneratedTreesCommitAtomically(t *testing.T) {
	prop := func(seed int64, nRaw, depthRaw uint8, readF float64) bool {
		n := 2 + int(nRaw%12)
		depth := 1 + int(depthRaw%3)
		if readF < 0 {
			readF = -readF
		}
		for readF > 1 {
			readF /= 2
		}
		tr := Generate(Spec{N: n, Depth: depth, ReadFraction: readF, Seed: seed})
		for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN} {
			opts := core.Options{}
			if v != protocol.VariantBaseline {
				opts.ReadOnly = true
			}
			eng, tx, err := tr.Build(core.Config{Variant: v, Options: opts})
			if err != nil {
				return false
			}
			res := tx.Commit(tr.Root)
			if res.Outcome != core.OutcomeCommitted || res.Err != nil {
				return false
			}
			// Every member that was not read-only must know committed.
			for _, m := range tr.Members {
				ro := (m.Kind == Reader || m.Kind == LeaveOutServer) && opts.ReadOnly
				if ro {
					continue
				}
				if o, ok := eng.OutcomeAt(m.ID, tx.ID()); !ok || o != core.OutcomeCommitted {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: measured flows never exceed the basic-2PC bound and
// decrease monotonically as the read fraction rises.
func TestQuickReadFractionMonotone(t *testing.T) {
	flowsAt := func(readF float64, seed int64) int {
		tr := Generate(Spec{N: 9, Depth: 1, ReadFraction: readF, Seed: seed})
		eng, tx, err := tr.Build(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}})
		if err != nil {
			return -1
		}
		if res := tx.Commit(tr.Root); res.Outcome != core.OutcomeCommitted {
			return -1
		}
		return eng.Metrics().ProtocolTriplet().Flows
	}
	prop := func(seed int64) bool {
		none := flowsAt(0, seed)
		all := flowsAt(1, seed)
		return none >= all && all >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
