package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/wal"
)

func TestCheckpointShrinksLogAndPreservesState(t *testing.T) {
	s, log := newStore(t)
	for i := 0; i < 20; i++ {
		id := tx(uint64(i + 1))
		if err := s.Put(bg, id, fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := log.Records()
	dropped, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("checkpoint dropped nothing")
	}
	after, _ := log.Records()
	if len(after) >= len(before) {
		t.Fatalf("log did not shrink: %d -> %d", len(before), len(after))
	}

	// Recovery from the truncated log must reproduce the same state.
	r := crashAndRecover(t, log)
	for i := 15; i < 20; i++ { // the final value of each key
		key := fmt.Sprintf("k%d", i%5)
		want := fmt.Sprintf("v%d", i)
		if got, _ := r.ReadCommitted(key); got != want {
			t.Errorf("%s = %q, want %q", key, got, want)
		}
	}
}

func TestCheckpointKeepsOpenTransactions(t *testing.T) {
	s, log := newStore(t)
	// One committed tx, one in-doubt tx, then checkpoint.
	s.Put(bg, tx(1), "done", "yes")
	s.Prepare(tx(1))
	s.Commit(tx(1))

	s.Put(bg, tx(2), "pending", "maybe")
	s.Prepare(tx(2)) // in doubt

	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := crashAndRecover(t, log)
	// The in-doubt transaction survived the checkpoint.
	ind := r.InDoubt()
	if len(ind) != 1 || ind[0] != tx(2) {
		t.Fatalf("in-doubt after checkpoint = %v", ind)
	}
	// And can still resolve either way with its update set intact.
	if err := r.Commit(tx(2)); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadCommitted("pending"); v != "maybe" {
		t.Fatalf("pending = %q after post-checkpoint resolution", v)
	}
	if v, _ := r.ReadCommitted("done"); v != "yes" {
		t.Fatalf("done = %q (snapshot content lost)", v)
	}
}

func TestCheckpointIsRepeatable(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "a", "1")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := crashAndRecover(t, log)
	if v, _ := r.ReadCommitted("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
}

func TestCheckpointCommitsAfterSnapshotReplay(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "a", "old")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A commit after the checkpoint must replay on top of the snapshot.
	s.Put(bg, tx(2), "a", "new")
	s.Prepare(tx(2))
	s.Commit(tx(2))

	r := crashAndRecover(t, log)
	if v, _ := r.ReadCommitted("a"); v != "new" {
		t.Fatalf("a = %q, want post-snapshot value", v)
	}
}

// Property: checkpointing at any point in a random committed history
// never changes the recovered state.
func TestQuickCheckpointEquivalence(t *testing.T) {
	prop := func(ops []uint8, ckptAt uint8) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		log := wal.New(wal.NewMemStore())
		s := New("db", log, clock.NewVirtual())
		when := int(ckptAt)
		if len(ops) > 0 {
			when = int(ckptAt) % (len(ops) + 1)
		}
		for i, op := range ops {
			if i == when {
				if _, err := s.Checkpoint(); err != nil {
					return false
				}
			}
			id := core.TxID{Origin: "A", Seq: uint64(i + 1)}
			key := fmt.Sprintf("k%d", op%6)
			if err := s.Put(bg, id, key, fmt.Sprintf("v%d", i)); err != nil {
				return false
			}
			if _, err := s.Prepare(id); err != nil {
				return false
			}
			if err := s.Commit(id); err != nil {
				return false
			}
		}
		want := map[string]string{}
		for _, k := range s.Keys() {
			want[k], _ = s.ReadCommitted(k)
		}
		log.Crash()
		rlog, err := NewRecoveredLog(log)
		if err != nil {
			return false
		}
		r, err := Recover("db", rlog, clock.NewVirtual())
		if err != nil {
			return false
		}
		if len(r.Keys()) != len(want) {
			return false
		}
		for k, v := range want {
			if got, _ := r.ReadCommitted(k); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSegmentStore runs the kvstore's checkpoint on the
// on-disk segment log: the truncated log recovers the committed value,
// keeps taking writes, and recovers again from a fresh open of the
// same directory.
func TestCheckpointSegmentStore(t *testing.T) {
	dir := t.TempDir()
	store, err := wal.OpenSegmentStore(dir, wal.WithSegmentFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	log := wal.New(store)
	s := New("db", log, clock.NewVirtual())
	for i := 0; i < 10; i++ {
		id := tx(uint64(i + 1))
		s.Put(bg, id, "k", fmt.Sprintf("v%d", i))
		s.Prepare(id)
		s.Commit(id)
	}
	dropped, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("nothing dropped from the segment store")
	}
	// The truncated log still recovers correctly.
	r, err := Recover("db", log, clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadCommitted("k"); v != "v9" {
		t.Fatalf("k = %q", v)
	}
	// And the store remains usable for new appends after the rewrite.
	id := tx(99)
	s.Put(bg, id, "k", "post-ckpt")
	s.Prepare(id)
	s.Commit(id)
	r2, err := Recover("db", log, clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r2.ReadCommitted("k"); v != "post-ckpt" {
		t.Fatalf("k after post-checkpoint write = %q", v)
	}
	// A restart reads the same state back from disk.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.OpenSegmentStore(dir, wal.WithSegmentFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	r3, err := Recover("db", wal.New(reopened), clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r3.ReadCommitted("k"); v != "post-ckpt" {
		t.Fatalf("k after reopen = %q", v)
	}
}
