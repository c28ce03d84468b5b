package live

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// commitAllocFloor is the heap allocations one PA commit costs the
// three participants of TestLiveCommitAllocFloor together: the
// coordinator's round, both subordinates' votes and outcomes, and the
// commit acks, struck off the pinned decided-table entry.
const commitAllocFloor = 55

// TestLiveCommitAllocFloor counts, sequentially, the allocations of
// one PA commit by a coordinator with two subordinates over
// in-process channels, waiting after each until every participant is
// idle (acks in, entries retired), so no commit's work spills into the
// next one's count. A per-commit allocation added anywhere on the
// path raises it past the floor.
func TestLiveCommitAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	net := netsim.NewChanNetwork()
	mk := func(name string) *Participant {
		p := NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]protocol.Resource{protocol.NewStaticResource("r" + name)})
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p
	}
	c, s1, s2 := mk("C"), mk("S1"), mk("S2")
	subs := []string{"S1", "S2"}
	ctx := context.Background()
	var seq uint64
	commit := func() {
		seq++
		tx := protocol.TxID{Origin: "C", Seq: seq}.String()
		if out, err := c.Commit(ctx, tx, subs); err != nil || out != Committed {
			t.Fatalf("commit %s = %v, %v", tx, out, err)
		}
		for c.PinnedDecisions()+c.StateTableSize()+s1.StateTableSize()+s2.StateTableSize() > 0 {
			runtime.Gosched()
		}
	}
	commit()
	got := testing.AllocsPerRun(200, commit)
	t.Logf("%.0f allocs per commit", got)
	if got > commitAllocFloor {
		t.Errorf("one PA commit allocates %.0f times, over the floor of %d", got, commitAllocFloor)
	}
}

// TestTxStateSizeClass pins a state-table entry to the runtime's
// 288-byte size class. An entry is only one side of a transaction, yet
// carries both a subordinate's Sub and a coordinator's Coord, so each
// must stay small: past 288 bytes every entry allocates the next class.
func TestTxStateSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(txState{}); got > 288 {
		t.Fatalf("txState is %d bytes, over the 288-byte size class", got)
	}
}
