package kvstore

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/lockmgr"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// crashAndRecover simulates a node failure: the old log's volatile
// buffer is dropped, and a new store is rebuilt from durable records.
func crashAndRecover(t *testing.T, old *wal.Log, opts ...Option) *Store {
	t.Helper()
	old.Crash()
	log, err := NewRecoveredLog(old)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover("db", log, clock.NewVirtual(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecoverCommittedTransaction(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1))
	s.Commit(tx(1))

	r := crashAndRecover(t, log)
	if v, ok := r.ReadCommitted("k"); !ok || v != "v1" {
		t.Fatalf("recovered k = %q,%v", v, ok)
	}
	if n := len(r.InDoubt()); n != 0 {
		t.Fatalf("in-doubt after clean commit = %d", n)
	}
}

func TestRecoverLosesUnpreparedTransaction(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v1") // active, never prepared: volatile only
	r := crashAndRecover(t, log)
	if _, ok := r.ReadCommitted("k"); ok {
		t.Fatal("unprepared write survived crash")
	}
	if n := len(r.InDoubt()); n != 0 {
		t.Fatalf("in-doubt = %d, want 0", n)
	}
}

func TestRecoverInDoubtKeepsLocks(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1)) // prepared, outcome never arrived

	r := crashAndRecover(t, log)
	ind := r.InDoubt()
	if len(ind) != 1 || ind[0] != tx(1) {
		t.Fatalf("InDoubt = %v", ind)
	}
	// The key must still be locked against other transactions.
	if err := r.Put(bg, tx(2), "k", "x"); !errors.Is(err, lockmgr.ErrConflict) {
		t.Fatalf("in-doubt key writable after recovery: %v", err)
	}
	// Data not applied yet.
	if _, ok := r.ReadCommitted("k"); ok {
		t.Fatal("in-doubt writes applied")
	}

	// Outcome finally arrives: commit resolves and unlocks.
	if err := r.Commit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadCommitted("k"); v != "v1" {
		t.Fatalf("after resolution k = %q", v)
	}
	if err := r.Put(bg, tx(2), "k", "x"); err != nil {
		t.Fatalf("key still locked after resolution: %v", err)
	}
}

func TestRecoverInDoubtResolvedByAbort(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1))

	r := crashAndRecover(t, log)
	if err := r.Abort(tx(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.ReadCommitted("k"); ok {
		t.Fatal("aborted in-doubt writes applied")
	}
}

func TestRecoverHeuristicDecisionRemembered(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1))
	s.HeuristicDecide(tx(1), true)

	r := crashAndRecover(t, log)
	taken, committed := r.HeuristicTaken(tx(1))
	if !taken || !committed {
		t.Fatalf("heuristic forgotten: %v,%v", taken, committed)
	}
	// Heuristic commit's effects must be present.
	if v, _ := r.ReadCommitted("k"); v != "v1" {
		t.Fatalf("heuristic commit not replayed: %q", v)
	}
	// Late outcome disagrees: surfaced as ErrHeuristic.
	if err := r.Abort(tx(1)); !errors.Is(err, ErrHeuristic) {
		t.Fatalf("late abort after recovered heuristic: %v", err)
	}
}

func TestRecoverSharedLogPreparedLostWithoutForce(t *testing.T) {
	// In shared-log mode the prepared record is not forced; if the
	// node crashes before any TM force, the record is lost and the
	// transaction simply aborts — the §4 Sharing-the-Log argument.
	s, log := newStore(t, WithSharedLog(true))
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1))

	r := crashAndRecover(t, log, WithSharedLog(true))
	if n := len(r.InDoubt()); n != 0 {
		t.Fatalf("lost prepared record still in doubt: %d", n)
	}
	if _, ok := r.ReadCommitted("k"); ok {
		t.Fatal("unforced prepared tx applied")
	}
}

func TestRecoverSharedLogPreparedSurvivesTMForce(t *testing.T) {
	s, log := newStore(t, WithSharedLog(true))
	s.Put(bg, tx(1), "k", "v1")
	s.Prepare(tx(1))
	// The TM forces its commit record on the same log, hardening the
	// LRM's earlier non-forced records.
	if _, err := log.Force(wal.Record{Tx: tx(1).String(), Node: "TM", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}

	r := crashAndRecover(t, log, WithSharedLog(true))
	ind := r.InDoubt()
	if len(ind) != 1 || ind[0] != tx(1) {
		t.Fatalf("prepared record hardened by TM force not recovered: %v", ind)
	}
}

func TestRecoverMultipleTransactionsInOrder(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "first")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	s.Put(bg, tx(2), "k", "second")
	s.Prepare(tx(2))
	s.Commit(tx(2))

	r := crashAndRecover(t, log)
	if v, _ := r.ReadCommitted("k"); v != "second" {
		t.Fatalf("replay order wrong: k = %q", v)
	}
}

func TestRecoverDeleteReplay(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	s.Delete(bg, tx(2), "k")
	s.Prepare(tx(2))
	s.Commit(tx(2))

	r := crashAndRecover(t, log)
	if _, ok := r.ReadCommitted("k"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
}

// Property: for a random sequence of committed transactions, a crash
// plus recovery yields exactly the same committed state.
func TestQuickRecoveryEquivalence(t *testing.T) {
	type op struct {
		Key   uint8
		Value uint8
		Del   bool
	}
	prop := func(txOps [][3]uint8) bool {
		log := wal.New(wal.NewMemStore())
		s := New("db", log, clock.NewVirtual())
		ctx := context.Background()
		for i, o := range txOps {
			id := protocol.TxID{Origin: "A", Seq: uint64(i + 1)}
			key := string(rune('a' + o[0]%8))
			op := op{Key: o[0], Value: o[1], Del: o[2]%4 == 0}
			var err error
			if op.Del {
				err = s.Delete(ctx, id, key)
			} else {
				err = s.Put(ctx, id, key, string(rune('A'+o[1]%26)))
			}
			if err != nil {
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
		got := map[string]string{}
		for _, k := range r.Keys() {
			got[k], _ = r.ReadCommitted(k)
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
