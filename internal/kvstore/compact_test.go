package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lockmgr"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// countKind counts the log's durable records of one kind.
func countKind(t *testing.T, log *wal.Log, kind string) int {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// commitOne runs one single-write transaction to completion.
func commitOne(t *testing.T, s *Store, id protocol.TxID, key, val string) {
	t.Helper()
	if err := s.Put(bg, id, key, val); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
}

// sameState fails unless got holds exactly want.
func sameState(t *testing.T, got *Store, want map[string]string) {
	t.Helper()
	have := got.Snapshot()
	if len(have) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(have), len(want))
	}
	for k, v := range want {
		if have[k] != v {
			t.Fatalf("recovered %s = %q, want %q", k, have[k], v)
		}
	}
}

// TestSelfCompactionRecoversAndStaysBounded drives 12k commits from
// four goroutines over a 4k-key space with blocking locks, so commits
// race every compaction's mark. The store compacts by itself, its log
// never holds more records than a bound set by the key count, and
// recovery over the same store reproduces the live state exactly.
func TestSelfCompactionRecoversAndStaysBounded(t *testing.T) {
	const keys, workers, perWorker = 4000, 4, 3000
	mem := wal.NewMemStore()
	log := wal.New(mem)
	s := New("db", log, clock.NewWall(), WithLockWait(time.Minute))
	// Every commit logs three records whose payload exceeds one
	// snapshot pair, and a snapshot holds at most one pair per key, so
	// the log since the last snapshot stays under three records per
	// key (plus the compaction floor's worth while the store is small).
	bound := 3*keys + 3*minCompactBytes/64 + 8

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var maxRecs int
	var maxMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				id := protocol.TxID{Origin: protocol.NodeID(fmt.Sprintf("w%d", w)), Seq: uint64(i + 1)}
				k1 := fmt.Sprintf("key%05d", rng.Intn(keys))
				k2 := fmt.Sprintf("key%05d", rng.Intn(keys))
				err := s.Put(bg, id, k1, fmt.Sprintf("w%d-%d", w, i))
				if err == nil && rng.Intn(4) == 0 {
					err = s.Put(bg, id, k2, fmt.Sprintf("w%d-%d'", w, i))
				}
				if errors.Is(err, lockmgr.ErrDeadlock) {
					_ = s.Abort(id)
					continue
				}
				if err == nil {
					_, err = s.Prepare(id)
				}
				if err == nil {
					if rng.Intn(10) == 0 {
						err = s.Abort(id)
					} else {
						err = s.Commit(id)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if i%250 == 0 {
					recs, _ := log.Records()
					maxMu.Lock()
					maxRecs = max(maxRecs, len(recs))
					maxMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _ := log.Records()
	maxRecs = max(maxRecs, len(recs))
	if n := countKind(t, log, recSnapshot); n != 1 {
		t.Fatalf("log keeps %d snapshots, want exactly the latest", n)
	}
	if maxRecs > bound {
		t.Fatalf("log reached %d records, bound %d for %d keys", maxRecs, bound, keys)
	}
	t.Logf("log peaked at %d records (bound %d), %d at the end", maxRecs, bound, len(recs))

	r, err := Recover("db", wal.New(mem), clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, r, s.Snapshot())
	if n := len(r.InDoubt()); n != 0 {
		t.Fatalf("%d transactions in doubt after a clean run", n)
	}
}

// compactNow grows the log past the self-compaction trigger with
// filler commits on keys of their own, returning the next free
// transaction number.
func compactNow(t *testing.T, s *Store, log *wal.Log, seq uint64) uint64 {
	t.Helper()
	for {
		grown := s.logBytes.Load()
		commitOne(t, s, tx(seq), fmt.Sprintf("fill%d", seq%64), fmt.Sprintf("%0100d", seq))
		seq++
		if s.logBytes.Load() < grown { // a mark reset the count
			if countKind(t, log, recSnapshot) != 1 {
				t.Fatal("compaction left no single snapshot")
			}
			return seq
		}
	}
}

// TestPreparedAcrossCompactionResolves: a transaction prepared before
// a self-triggered compaction keeps its records through the truncate
// and resolves correctly on either side of a crash.
func TestPreparedAcrossCompactionResolves(t *testing.T) {
	t.Run("resolved-live", func(t *testing.T) {
		s, log := newStore(t)
		if err := s.Put(bg, tx(1), "held", "before"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(tx(1)); err != nil {
			t.Fatal(err)
		}
		seq := compactNow(t, s, log, 100)
		if err := s.Commit(tx(1)); err != nil {
			t.Fatal(err)
		}
		compactNow(t, s, log, seq) // a second compaction drops tx 1's records
		want := s.Snapshot()
		if want["held"] != "before" {
			t.Fatalf("held = %q after commit", want["held"])
		}
		sameState(t, crashAndRecover(t, log), want)
	})
	t.Run("resolved-after-crash", func(t *testing.T) {
		s, log := newStore(t)
		commitOne(t, s, tx(1), "held", "old")
		if err := s.Put(bg, tx(2), "held", "new"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(tx(2)); err != nil {
			t.Fatal(err)
		}
		compactNow(t, s, log, 100)
		want := s.Snapshot()
		r := crashAndRecover(t, log)
		if ind := r.InDoubt(); len(ind) != 1 || ind[0] != tx(2) {
			t.Fatalf("in doubt after recovery = %v, want [%v]", ind, tx(2))
		}
		sameState(t, r, want)
		if err := r.Commit(tx(2)); err != nil {
			t.Fatal(err)
		}
		if v, _ := r.ReadCommitted("held"); v != "new" {
			t.Fatalf("held = %q after resolving, want new", v)
		}
	})
}

// TestCrashBetweenSnapshotAndTruncate crashes the device after the
// snapshot is forced but before the truncate runs, with commits racing
// in between: one that finished before the mark, one prepared before
// it and committed after the snapshot, and a lazily logged update that
// the crash loses.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	mem := wal.NewMemStore()
	log := wal.New(mem)
	s := New("db", log, clock.NewVirtual())
	commitOne(t, s, tx(1), "a", "1")
	commitOne(t, s, tx(2), "a", "2")
	if err := s.Put(bg, tx(3), "b", "3"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(tx(3)); err != nil {
		t.Fatal(err)
	}

	s.compactMu.Lock()
	_, _, pairs, err := s.markSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeSnapshot(pairs); err != nil {
		t.Fatal(err)
	}
	s.compactMu.Unlock()
	if err := s.Commit(tx(3)); err != nil { // forced: survives the crash
		t.Fatal(err)
	}
	if err := s.Put(bg, tx(4), "c", "lost"); err != nil {
		t.Fatal(err)
	}
	if err := s.writeLog(tx(4).String(), recUpdate, []byte(`[{"k":"c","v":"lost"}]`), false); err != nil {
		t.Fatal(err)
	}
	// The crash: the log's buffer and the device's unsynced tail go;
	// the truncate never runs.
	log.Crash()
	mem.DropUnsynced()

	r, err := Recover("db", wal.New(mem), clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, r, map[string]string{"a": "2", "b": "3"})
	if n := len(r.InDoubt()); n != 0 {
		t.Fatalf("%d in doubt, want 0", n)
	}
}

// TestSharedLogStoreNeverCompacts: a shared-log store writes no
// snapshot of its own, however much it logs.
func TestSharedLogStoreNeverCompacts(t *testing.T) {
	s, log := newStore(t, WithSharedLog(true))
	for i := uint64(1); i <= 1000; i++ {
		commitOne(t, s, tx(i), fmt.Sprintf("k%d", i%16), fmt.Sprintf("%0100d", i))
	}
	if st := log.Stats(); st.Forces != 0 {
		t.Fatalf("shared-log store forced %d times", st.Forces)
	}
	if n := countKind(t, log, recSnapshotMark); n != 0 {
		t.Fatalf("shared-log store compacted %d times", n)
	}
}
