package core

import (
	"errors"
	"testing"

	"repro/internal/protocol"
	"repro/internal/txerr"
)

// TestVoteTimeoutSurfacesSharedSentinel checks that a coordinator
// abort caused by a vote timeout carries the shared txerr.ErrTimeout
// sentinel on the application Result, so callers can errors.Is
// uniformly across the simulator and the live runtime.
func TestVoteTimeoutSurfacesSharedSentinel(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA})
	a := eng.AddNode("A")
	b := eng.AddNode("B")
	a.AttachResource(protocol.NewStaticResource("ra"))
	b.AttachResource(protocol.NewStaticResource("rb"))

	tx := eng.Begin("A")
	if err := tx.Send("A", "B", "work"); err != nil {
		t.Fatal(err)
	}
	// Sever the link: B never sees the Prepare, the vote timer fires,
	// and the coordinator aborts on its own initiative.
	eng.Partition("A", "B")
	res := tx.Commit("A")
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	if !errors.Is(res.Err, txerr.ErrTimeout) {
		t.Fatalf("res.Err = %v, want errors.Is(_, txerr.ErrTimeout)", res.Err)
	}
}

// TestBlockedCommitSurfacesInDoubt checks ErrIncomplete wraps the
// shared in-doubt sentinel.
func TestBlockedCommitSurfacesInDoubt(t *testing.T) {
	if !errors.Is(ErrIncomplete, txerr.ErrInDoubt) {
		t.Fatal("ErrIncomplete does not wrap txerr.ErrInDoubt")
	}
}
