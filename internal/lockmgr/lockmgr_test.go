package lockmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func newMgr() (*Manager, *clock.Virtual) {
	clk := clock.NewVirtual()
	return New(clk), clk
}

func TestSharedLocksCompatible(t *testing.T) {
	m, _ := newMgr()
	if err := m.TryAcquire("t1", "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire("t2", "k", Shared); err != nil {
		t.Fatalf("second shared lock refused: %v", err)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m, _ := newMgr()
	if err := m.TryAcquire("t1", "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire("t2", "k", Shared); !errors.Is(err, ErrConflict) {
		t.Fatalf("S after X: err = %v, want ErrConflict", err)
	}
	if err := m.TryAcquire("t2", "k", Exclusive); !errors.Is(err, ErrConflict) {
		t.Fatalf("X after X: err = %v, want ErrConflict", err)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m, _ := newMgr()
	if err := m.TryAcquire("t1", "k", Shared); err != nil {
		t.Fatal(err)
	}
	// Re-request in same or weaker mode is a no-op.
	if err := m.TryAcquire("t1", "k", Shared); err != nil {
		t.Fatal(err)
	}
	// Sole holder may upgrade.
	if err := m.TryAcquire("t1", "k", Exclusive); err != nil {
		t.Fatalf("upgrade refused: %v", err)
	}
	if !m.Holds("t1", "k", Exclusive) {
		t.Fatal("upgrade not recorded")
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "k", Shared)
	m.TryAcquire("t2", "k", Shared)
	if err := m.TryAcquire("t1", "k", Exclusive); !errors.Is(err, ErrConflict) {
		t.Fatalf("upgrade with co-reader: err = %v, want ErrConflict", err)
	}
}

func TestReleaseAllWakesWaiter(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "k", Exclusive)

	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(context.Background(), "t2", "k", Exclusive)
	}()
	// Give the waiter time to queue, then release.
	waitFor(t, func() bool { return m.WaiterCount("k") == 1 })
	m.ReleaseAll("t1")
	if err := <-done; err != nil {
		t.Fatalf("waiter did not get lock: %v", err)
	}
	if !m.Holds("t2", "k", Exclusive) {
		t.Fatal("t2 should hold k")
	}
}

func TestFIFOPreventsWriterStarvation(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("r1", "k", Shared)

	// A writer queues...
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(context.Background(), "w", "k", Exclusive) }()
	waitFor(t, func() bool { return m.WaiterCount("k") == 1 })

	// ...so a later reader must not jump the queue.
	if err := m.TryAcquire("r2", "k", Shared); !errors.Is(err, ErrConflict) {
		t.Fatalf("reader jumped queued writer: err = %v", err)
	}

	m.ReleaseAll("r1")
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "k", Exclusive)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Acquire(ctx, "t2", "k", Exclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The abandoned waiter must not be granted later.
	m.ReleaseAll("t1")
	if m.Holds("t2", "k", Exclusive) {
		t.Fatal("cancelled waiter was granted the lock")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "a", Exclusive)
	m.TryAcquire("t2", "b", Exclusive)

	// t1 waits for b (held by t2)...
	go m.Acquire(context.Background(), "t1", "b", Exclusive)
	waitFor(t, func() bool { return m.WaiterCount("b") == 1 })

	// ...so t2 requesting a would close the cycle: t2 must be refused.
	err := m.Acquire(context.Background(), "t2", "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}

	// Unwind: t2 releases, t1's wait completes.
	m.ReleaseAll("t2")
	waitFor(t, func() bool { return m.Holds("t1", "b", Exclusive) })
}

func TestHoldTimeAccounting(t *testing.T) {
	m, clk := newMgr()
	m.TryAcquire("t1", "a", Exclusive)
	clk.Advance(10 * time.Millisecond)
	m.TryAcquire("t1", "b", Shared)
	clk.Advance(5 * time.Millisecond)

	held := m.ReleaseAll("t1")
	if len(held) != 2 {
		t.Fatalf("released %d locks, want 2", len(held))
	}
	// Sorted by key: a held 15ms, b held 5ms.
	if held[0].Key != "a" || held[0].Hold != 15*time.Millisecond {
		t.Fatalf("a hold = %+v", held[0])
	}
	if held[1].Key != "b" || held[1].Hold != 5*time.Millisecond {
		t.Fatalf("b hold = %+v", held[1])
	}
	if got := m.TotalHoldTime(); got != 20*time.Millisecond {
		t.Fatalf("TotalHoldTime = %v", got)
	}
}

func TestHeldKeys(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "z", Shared)
	m.TryAcquire("t1", "a", Exclusive)
	got := m.HeldKeys("t1")
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Fatalf("HeldKeys = %v", got)
	}
}

func TestReleaseAllIdempotent(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "k", Exclusive)
	if n := len(m.ReleaseAll("t1")); n != 1 {
		t.Fatalf("first release = %d locks", n)
	}
	if n := len(m.ReleaseAll("t1")); n != 0 {
		t.Fatalf("second release = %d locks, want 0", n)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatalf("mode strings: %s %s", Shared, Exclusive)
	}
}

// Property: under random concurrent acquire/release traffic every
// Acquire eventually completes (no lost wakeups) and exclusive locks
// are truly exclusive.
func TestQuickMutualExclusion(t *testing.T) {
	prop := func(seed uint8) bool {
		m, _ := newMgr()
		const workers = 4
		var inside [workers]bool
		var mu sync.Mutex
		violated := false
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				owner := string(rune('a' + id))
				for j := 0; j < 20; j++ {
					if err := m.Acquire(context.Background(), owner, "K", Exclusive); err != nil {
						continue // deadlock victim: retry next iteration
					}
					mu.Lock()
					for k := 0; k < workers; k++ {
						if k != id && inside[k] {
							violated = true
						}
					}
					inside[id] = true
					mu.Unlock()

					mu.Lock()
					inside[id] = false
					mu.Unlock()
					m.ReleaseAll(owner)
				}
			}(i)
		}
		wg.Wait()
		return !violated
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestThreeWayDeadlockDetected(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "a", Exclusive)
	m.TryAcquire("t2", "b", Exclusive)
	m.TryAcquire("t3", "c", Exclusive)

	// t1 waits for b, t2 waits for c; t3 asking for a closes a 3-cycle.
	go m.Acquire(context.Background(), "t1", "b", Exclusive)
	waitFor(t, func() bool { return m.WaiterCount("b") == 1 })
	go m.Acquire(context.Background(), "t2", "c", Exclusive)
	waitFor(t, func() bool { return m.WaiterCount("c") == 1 })

	if err := m.Acquire(context.Background(), "t3", "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("3-cycle: err = %v, want ErrDeadlock", err)
	}
	// Unwind.
	m.ReleaseAll("t3")
	m.ReleaseAll("t2")
	m.ReleaseAll("t1")
}

func TestSharedWaitersGrantedTogether(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("w", "k", Exclusive)
	done := make(chan error, 2)
	go func() { done <- m.Acquire(context.Background(), "r1", "k", Shared) }()
	go func() { done <- m.Acquire(context.Background(), "r2", "k", Shared) }()
	waitFor(t, func() bool { return m.WaiterCount("k") == 2 })
	m.ReleaseAll("w")
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("shared waiter %d: %v", i, err)
		}
	}
	if !m.Holds("r1", "k", Shared) || !m.Holds("r2", "k", Shared) {
		t.Fatal("both readers should hold the lock")
	}
}

func TestHoldsModeSemantics(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t", "k", Shared)
	if !m.Holds("t", "k", Shared) {
		t.Fatal("shared hold not reported")
	}
	if m.Holds("t", "k", Exclusive) {
		t.Fatal("shared hold reported as exclusive")
	}
	if m.Holds("x", "k", Shared) {
		t.Fatal("non-holder reported")
	}
	if m.Holds("t", "other", Shared) {
		t.Fatal("unknown key reported")
	}
}
