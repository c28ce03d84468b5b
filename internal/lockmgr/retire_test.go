package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// wantEmpty fails unless the lock table holds no state at all.
func wantEmpty(t *testing.T, m *Manager) {
	t.Helper()
	n, err := m.stateCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || m.TableSize() != 0 {
		t.Fatalf("lock table keeps %d states (TableSize %d), want 0", n, m.TableSize())
	}
}

func TestTableEmptyAfterReleaseAll(t *testing.T) {
	m, _ := newMgr()
	for _, k := range []string{"a", "b", "c"} {
		if err := m.TryAcquire("t1", k, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.TryAcquire("t2", k+"s", Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.TryAcquire("t3", k+"s", Shared); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := m.stateCount(); err != nil || n != 6 {
		t.Fatalf("stateCount = %d, %v; want 6", n, err)
	}
	m.ReleaseAll("t1")
	m.ReleaseAll("t2")
	if n, _ := m.stateCount(); n != 3 {
		t.Fatalf("after t1, t2: %d states, want t3's 3", n)
	}
	m.ReleaseAll("t3")
	wantEmpty(t, m)
}

func TestTableEmptyAfterWaiterTimesOut(t *testing.T) {
	m, _ := newMgr()
	if err := m.TryAcquire("t1", "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Acquire(ctx, "t2", "k", Exclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if m.WaiterCount("k") != 0 {
		t.Fatal("timed-out waiter still queued")
	}
	m.ReleaseAll("t1")
	wantEmpty(t, m)

	// The same, with the holder gone before the waiter gives up: the
	// withdrawal itself must free the key.
	m.TryAcquire("t1", "k", Exclusive)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx2, "t2", "k", Exclusive) }()
	waitFor(t, func() bool { return m.WaiterCount("k") == 1 })
	cancel2()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	m.ReleaseAll("t1")
	wantEmpty(t, m)
}

func TestTableEmptyAfterDeadlockVictimWithdraws(t *testing.T) {
	m, _ := newMgr()
	m.TryAcquire("t1", "a", Exclusive)
	m.TryAcquire("t2", "b", Exclusive)
	waited := make(chan error, 1)
	go func() { waited <- m.Acquire(context.Background(), "t1", "b", Exclusive) }()
	waitFor(t, func() bool { return m.WaiterCount("b") == 1 })
	if err := m.Acquire(context.Background(), "t2", "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if m.WaiterCount("a") != 0 {
		t.Fatal("deadlock victim still queued on a")
	}
	m.ReleaseAll("t2")
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll("t1")
	wantEmpty(t, m)
}

// TestTableEmptyAfterStress races blocking acquires, cancellations and
// releases over a few hot keys in both modes; whatever interleaving
// the scheduler picks, the table must end empty.
func TestTableEmptyAfterStress(t *testing.T) {
	m := New(clock.NewWall(), WithShards(2))
	keys := []string{"h0", "h1", "h2", "h3"}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				owner := fmt.Sprintf("w%d-%d", w, r)
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(4) == 0 {
					cancel() // some requests give up before or while waiting
				} else {
					time.AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, cancel)
				}
				for i := 0; i < 1+rng.Intn(3); i++ {
					mode := Shared
					if rng.Intn(3) == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(ctx, owner, keys[rng.Intn(len(keys))], mode); err != nil {
						break
					}
				}
				m.ReleaseAll(owner)
				cancel()
			}
		}(w)
	}
	wg.Wait()
	wantEmpty(t, m)
	if n := m.TotalWaiters(); n != 0 {
		t.Fatalf("%d waiters left", n)
	}
}

// TestRecycledStateCarriesNoStaleHolder frees a state with holders and
// a queue behind it, then takes states back out of the pool: whichever
// comes back must be blank, and a reused key must see only its new
// holder.
func TestRecycledStateCarriesNoStaleHolder(t *testing.T) {
	ls := statePool.Get().(*lockState)
	ls.holders = append(ls.holders, holder{owner: "old", mode: Exclusive}, holder{owner: "old2"})
	ls.queue = append(ls.queue, &waiter{owner: "queued"})
	freeState(ls)
	if len(ls.holders) != 0 || len(ls.queue) != 0 {
		t.Fatalf("freed state keeps %d holders, %d waiters", len(ls.holders), len(ls.queue))
	}
	if full := ls.holders[:cap(ls.holders)]; len(full) > 0 && full[0].owner != "" {
		t.Fatalf("freed state's backing array still names %q", full[0].owner)
	}
	for i := 0; i < 8; i++ {
		got := statePool.Get().(*lockState)
		if len(got.holders) != 0 || len(got.queue) != 0 {
			t.Fatalf("pooled state carries holders %+v, queue %d", got.holders, len(got.queue))
		}
	}

	m, _ := newMgr()
	m.TryAcquire("t1", "k", Exclusive)
	m.TryAcquire("t1", "j", Shared)
	m.ReleaseAll("t1")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := m.TryAcquire("t2", key, Shared); err != nil {
			t.Fatal(err)
		}
		ls := m.stateFor(key)
		if len(ls.holders) != 1 || ls.holders[0].owner != "t2" || len(ls.queue) != 0 {
			t.Fatalf("%s: holders %+v, queue %d; want only t2", key, ls.holders, len(ls.queue))
		}
		if m.Holds("t1", key, Shared) {
			t.Fatalf("%s: released owner t1 still holds", key)
		}
	}
	m.ReleaseAll("t2")
	wantEmpty(t, m)
}
