package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// advanceVirtual runs a background driver that advances v to each
// next timer deadline until stop is closed, so pipeline tests using a
// virtual clock never hang on a window timer.
func advanceVirtual(v *clock.Virtual, stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d, ok := v.NextDeadline(); ok {
				v.AdvanceTo(d)
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
}

func TestPipelineForceIsDurable(t *testing.T) {
	store := NewMemStore()
	l := New(store).WithPolicy(NewPipeline(nil, time.Millisecond))
	defer l.Close()
	for i := 0; i < 10; i++ {
		lsn, err := l.Force(Record{Tx: "t", Kind: "Prepared"})
		if err != nil {
			t.Fatalf("force: %v", err)
		}
		if got := l.SyncedLSN(); got < lsn {
			t.Fatalf("force returned before coverage: synced %d < lsn %d", got, lsn)
		}
		recs, _ := store.Records()
		if int64(len(recs)) < lsn {
			t.Fatalf("store has %d records, want >= %d", len(recs), lsn)
		}
	}
}

func TestPipelineConcurrentForcesAllDurable(t *testing.T) {
	store := NewMemStore()
	l := New(store).WithPolicy(NewPipeline(nil, time.Millisecond))
	defer l.Close()
	const workers = 32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				lsn, err := l.Force(Record{Tx: fmt.Sprintf("t%d-%d", i, j), Kind: "Committed"})
				if err != nil {
					t.Errorf("force: %v", err)
					return
				}
				if got := l.SyncedLSN(); got < lsn {
					t.Errorf("synced %d < forced lsn %d", got, lsn)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	recs, _ := store.Records()
	if len(recs) != workers*20 {
		t.Fatalf("durable records = %d, want %d", len(recs), workers*20)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("store order broken at %d: %d after %d", i, recs[i].LSN, recs[i-1].LSN)
		}
	}
}

func TestPipelineBatchesConcurrentForces(t *testing.T) {
	// A MemStore syncs instantly; an infinitely fast device never
	// piles requests up, so give the sync a realistic latency.
	store := &hookedStore{Store: NewMemStore(), beforeSync: func() { time.Sleep(200 * time.Microsecond) }}
	l := New(store).WithPolicy(NewPipeline(nil, 2*time.Millisecond))
	defer l.Close()
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := l.Force(Record{Tx: fmt.Sprintf("t%d-%d", i, j)}); err != nil {
					t.Errorf("force: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Syncs >= st.Forces {
		t.Fatalf("no batching: %d syncs for %d forces", st.Syncs, st.Forces)
	}
}

func TestPipelineAdaptiveWindowWidensAndCollapses(t *testing.T) {
	v := clock.NewVirtual()
	stop := make(chan struct{})
	defer close(stop)
	advanceVirtual(v, stop)

	store := NewMemStore()
	// A slow sync makes requests pile up so batches are reliably >1.
	var slow atomic.Bool
	store2 := &hookedStore{Store: store, beforeSync: func() {
		if slow.Load() {
			time.Sleep(time.Millisecond)
		}
	}}
	p := NewPipeline(v, 8*time.Millisecond, WithBaseWindow(time.Millisecond))
	l := New(store2).WithPolicy(p)
	defer l.Close()

	slow.Store(true)
	// Sample the window while the burst runs: the tail of the burst
	// can legitimately shrink it again, so the widening claim is about
	// the maximum reached, not the final value.
	var maxWindow atomic.Int64
	sampleStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-sampleStop:
				return
			default:
			}
			if w := int64(p.Window()); w > maxWindow.Load() {
				maxWindow.Store(w)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := l.Force(Record{Tx: fmt.Sprintf("burst%d-%d", i, j)}); err != nil {
					t.Errorf("force: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(sampleStop)
	if maxWindow.Load() == 0 {
		t.Fatalf("window never widened under concurrent load")
	}
	slow.Store(false)

	// Idle traffic: strictly sequential forces shrink the window back
	// to zero (each batch holds exactly one request).
	for i := 0; i < 20; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("idle%d", i)}); err != nil {
			t.Fatalf("force: %v", err)
		}
	}
	if w := p.Window(); w != 0 {
		t.Fatalf("window = %v after idle traffic, want 0", w)
	}
}

// TestPipelineHintGroupsAnnouncedBurst collapses the adaptive window,
// announces a burst via Hint, and trickles the burst's forces in with
// real gaps between them: the hint must hold the writer's window open
// so the whole burst hardens under one physical sync.
func TestPipelineHintGroupsAnnouncedBurst(t *testing.T) {
	store := NewMemStore()
	p := NewPipeline(nil, 400*time.Millisecond, WithBaseWindow(200*time.Millisecond))
	l := New(store).WithPolicy(p)
	defer l.Close()

	// Sequential singles collapse the window to immediate mode.
	for i := 0; i < 8; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("warm%d", i)}); err != nil {
			t.Fatalf("force: %v", err)
		}
	}
	if w := p.Window(); w != 0 {
		t.Fatalf("window = %v after sequential traffic, want 0", w)
	}

	const burst = 4
	before := l.Stats().Syncs
	p.Hint(burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 3 * time.Millisecond) // mid-dispatch gaps
			if _, err := l.Force(Record{Tx: fmt.Sprintf("burst%d", i)}); err != nil {
				t.Errorf("force: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := l.Stats().Syncs - before; got != 1 {
		t.Fatalf("announced burst took %d syncs, want 1", got)
	}
}

// TestPipelineHintNoShowDoesNotWedge announces forces that never
// arrive: the one that does must still complete (after at most one
// base window), and the stale expectation must not haunt later
// batches.
func TestPipelineHintNoShowDoesNotWedge(t *testing.T) {
	store := NewMemStore()
	p := NewPipeline(nil, time.Millisecond, WithBaseWindow(500*time.Microsecond))
	l := New(store).WithPolicy(p)
	defer l.Close()

	p.Hint(3) // only one will show up
	if _, err := l.Force(Record{Tx: "lonely"}); err != nil {
		t.Fatalf("force with unfulfilled hint: %v", err)
	}
	if p.hintOutstanding() {
		t.Fatal("stale hint survived its linger")
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("after%d", i)}); err != nil {
			t.Fatalf("force after stale hint: %v", err)
		}
	}
}

// TestPipelineRhythmBreakerDisarmsForLoneForcer drives a strictly
// sequential forcer against a slow device — the pattern whose duty
// cycle trips the rhythm breaker but where no neighbor can ever join
// a held linger. The first held gather must disarm the breaker, and
// every force must complete with its own sync (nothing to group, and
// nothing wedged).
func TestPipelineRhythmBreakerDisarmsForLoneForcer(t *testing.T) {
	store := &hookedStore{Store: NewMemStore(), beforeSync: func() { time.Sleep(100 * time.Microsecond) }}
	l := New(store).WithPolicy(NewPipeline(nil, 2*time.Millisecond))
	defer l.Close()
	const forces = 50
	for i := 0; i < forces; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("solo%d", i)}); err != nil {
			t.Fatalf("force: %v", err)
		}
	}
	st := l.Stats()
	if st.Forces != forces {
		t.Fatalf("forces = %d, want %d", st.Forces, forces)
	}
	if st.Syncs != forces {
		t.Fatalf("sequential forcer got %d syncs for %d forces; grouping is impossible with one caller", st.Syncs, forces)
	}
}

func TestPipelineCrashUnblocksForcers(t *testing.T) {
	store := NewMemStore()
	release := make(chan struct{})
	var once sync.Once
	blocked := make(chan struct{})
	hs := &hookedStore{Store: store, beforeSync: func() {
		once.Do(func() { close(blocked) })
		<-release
	}}
	l := New(hs).WithPolicy(NewPipeline(nil, time.Millisecond))

	errc := make(chan error, 1)
	go func() {
		_, err := l.Force(Record{Tx: "stuck"})
		errc <- err
	}()
	<-blocked // the writer is inside the sync
	go func() {
		_, err := l.Force(Record{Tx: "queued"})
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	l.Crash()
	close(release)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			// The in-flight force may have been covered by the sync
			// that was already running; the queued one must fail.
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("forcer still blocked after crash")
		}
	}
	if _, err := l.Force(Record{Tx: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("force after crash = %v, want ErrClosed", err)
	}
}

func TestPipelineSyncErrorPropagates(t *testing.T) {
	store := NewMemStore()
	l := New(store).WithPolicy(NewPipeline(nil, time.Millisecond))
	defer l.Close()
	if _, err := l.Force(Record{Tx: "ok"}); err != nil {
		t.Fatalf("first force: %v", err)
	}
	boom := errors.New("device on fire")
	store.FailNext(boom)
	if _, err := l.Force(Record{Tx: "bad"}); !errors.Is(err, boom) {
		t.Fatalf("force error = %v, want %v", err, boom)
	}
	// The pipeline must keep serving after an error.
	if _, err := l.Force(Record{Tx: "after"}); err != nil {
		t.Fatalf("force after error: %v", err)
	}
}

// hookedStore wraps a Store with a before-sync hook (MemStore has no
// stall injection of its own).
type hookedStore struct {
	Store
	beforeSync func()
}

func (h *hookedStore) Sync() error {
	if h.beforeSync != nil {
		h.beforeSync()
	}
	return h.Store.Sync()
}

// TestPipelineLoneForcerFlushesInline: a lone sequential forcer leads
// every batch itself — no goroutine is started to serve it, and a force
// allocates no more than its record's share of the buffers.
func TestPipelineLoneForcerFlushesInline(t *testing.T) {
	l := New(NewMemStore()).WithPolicy(NewPipeline(nil, time.Millisecond))
	defer l.Close()
	rec := Record{Tx: "t", Node: "N", Kind: "Committed"}
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		if _, err := l.Force(rec); err != nil {
			t.Fatalf("force: %v", err)
		}
	}
	// Goroutines left by earlier tests may exit meanwhile; none may start.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across 1000 lone forces, want no new one", before, after)
	}
	if st := l.Stats(); st.Syncs != st.Forces {
		t.Fatalf("lone forcer: %d syncs for %d forces", st.Syncs, st.Forces)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.Force(rec); err != nil {
			t.Fatalf("force: %v", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a lone force allocates %.0f times, want at most 1", allocs)
	}
}

// openBatchSize reports how many forces have joined the open batch.
func openBatchSize(p *Pipeline) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == nil {
		return 0
	}
	return p.open.n
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPipelineQueuedForcesShareOneFlush: forces that arrive while a
// leader is flushing queue as the next batch and are answered together
// by that batch's one flush.
func TestPipelineQueuedForcesShareOneFlush(t *testing.T) {
	release := make(chan struct{})
	var blocked atomic.Bool
	entered := make(chan struct{})
	hs := &hookedStore{Store: NewMemStore(), beforeSync: func() {
		if blocked.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}}
	p := NewPipeline(nil, 0)
	l := New(hs).WithPolicy(p)
	defer l.Close()

	first := make(chan error, 1)
	go func() {
		_, err := l.Force(Record{Tx: "leader"})
		first <- err
	}()
	<-entered // the first leader is inside its sync
	const queued = 6
	errc := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func(i int) {
			_, err := l.Force(Record{Tx: fmt.Sprintf("queued%d", i)})
			errc <- err
		}(i)
	}
	waitFor(t, "the queued forces to join one batch", func() bool { return openBatchSize(p) == queued })
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("queued force: %v", err)
		}
	}
	if st := l.Stats(); st.Syncs != 2 || p.Batches() != 2 {
		t.Fatalf("%d syncs in %d batches for 1 leader + %d queued forces, want 2 and 2", st.Syncs, p.Batches(), queued)
	}
}

// TestPipelineCrashWhileLeaderLingers: a Crash while a leader lingers
// for announced stragglers fails the leader and every follower that
// joined it with ErrClosed.
func TestPipelineCrashWhileLeaderLingers(t *testing.T) {
	p := NewPipeline(nil, time.Minute, WithBaseWindow(time.Minute))
	l := New(NewMemStore()).WithPolicy(p)
	p.Hint(100) // far more than will arrive: the leader lingers to its deadline
	const forcers = 4
	errc := make(chan error, forcers)
	for i := 0; i < forcers; i++ {
		go func(i int) {
			_, err := l.Force(Record{Tx: fmt.Sprintf("f%d", i)})
			errc <- err
		}(i)
	}
	waitFor(t, "every forcer to join the lingering batch", func() bool { return openBatchSize(p) == forcers })
	l.Crash()
	for i := 0; i < forcers; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("force during crash = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a forcer is still blocked after the crash")
		}
	}
}
