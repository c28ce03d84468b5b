package kvstore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/lockmgr"
	"repro/internal/protocol"
	"repro/internal/wal"
)

var bg = context.Background()

func newStore(t *testing.T, opts ...Option) (*Store, *wal.Log) {
	t.Helper()
	log := wal.New(wal.NewMemStore())
	return New("db", log, clock.NewVirtual(), opts...), log
}

func tx(n uint64) protocol.TxID { return protocol.TxID{Origin: "A", Seq: n} }

func TestPutGetWithinTx(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Put(bg, tx(1), "k", "v1"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(bg, tx(1), "k")
	if err != nil || got != "v1" {
		t.Fatalf("read-your-writes: got %q, %v", got, err)
	}
	// Not visible as committed state yet.
	if _, ok := s.ReadCommitted("k"); ok {
		t.Fatal("uncommitted write visible as committed")
	}
}

func TestCommitAppliesWrites(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	s.Put(bg, tx(1), "k2", "v2")
	res, err := s.Prepare(tx(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Vote != protocol.VoteYes {
		t.Fatalf("vote = %v, want yes", res.Vote)
	}
	if err := s.Commit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadCommitted("k"); v != "v1" {
		t.Fatalf("k = %q", v)
	}
	if got := s.Keys(); len(got) != 2 || got[0] != "k" || got[1] != "k2" {
		t.Fatalf("keys = %v", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v1")
	if _, err := s.Prepare(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(tx(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ReadCommitted("k"); ok {
		t.Fatal("aborted write visible")
	}
	// Locks must be free again.
	if err := s.Put(bg, tx(2), "k", "x"); err != nil {
		t.Fatalf("lock not released after abort: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	s.Commit(tx(1))

	if err := s.Delete(bg, tx(2), "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(bg, tx(2), "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of deleted key: %v", err)
	}
	s.Prepare(tx(2))
	s.Commit(tx(2))
	if _, ok := s.ReadCommitted("k"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestReadOnlyVoteReleasesLocksAndSkipsLogging(t *testing.T) {
	s, log := newStore(t)
	// Seed a value.
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	base := log.Stats()

	if _, err := s.Get(bg, tx(2), "k"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Prepare(tx(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Vote != protocol.VoteReadOnly {
		t.Fatalf("vote = %v, want read-only", res.Vote)
	}
	if st := log.Stats(); st.Appends != base.Appends {
		t.Fatalf("read-only prepare logged %d records", st.Appends-base.Appends)
	}
	// Locks released at the vote: another tx can write immediately.
	if err := s.Put(bg, tx(3), "k", "v2"); err != nil {
		t.Fatalf("read-only locks not released: %v", err)
	}
}

func TestPrepareForcesLog(t *testing.T) {
	s, log := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	if _, err := s.Prepare(tx(1)); err != nil {
		t.Fatal(err)
	}
	st := log.Stats()
	if st.Forces != 1 {
		t.Fatalf("prepare forces = %d, want 1", st.Forces)
	}
	if st.Appends != 2 { // update set + prepared
		t.Fatalf("prepare appends = %d, want 2", st.Appends)
	}
}

func TestSharedLogModeNeverForces(t *testing.T) {
	s, log := newStore(t, WithSharedLog(true))
	s.Put(bg, tx(1), "k", "v")
	if _, err := s.Prepare(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.Forces != 0 {
		t.Fatalf("shared-log store forced %d times", st.Forces)
	}
	if st := log.Stats(); st.Appends != 3 { // update, prepared, committed — all non-forced
		t.Fatalf("appends = %d, want 3", st.Appends)
	}
}

func TestAttributesOnVote(t *testing.T) {
	s, _ := newStore(t, WithReliable(true), WithOKToLeaveOut(true))
	s.Put(bg, tx(1), "k", "v")
	res, err := s.Prepare(tx(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reliable || !res.OKToLeaveOut {
		t.Fatalf("attributes = %+v", res)
	}
}

func TestWriteConflictNonBlocking(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Put(bg, tx(1), "k", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bg, tx(2), "k", "b"); !errors.Is(err, lockmgr.ErrConflict) {
		t.Fatalf("conflicting write: err = %v, want ErrConflict", err)
	}
}

func TestCommitUnknownTxIsNoOp(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Commit(tx(9)); err != nil {
		t.Fatalf("commit of unknown tx: %v", err)
	}
	if err := s.Abort(tx(9)); err != nil {
		t.Fatalf("abort of unknown tx: %v", err)
	}
}

func TestCommitIsIdempotent(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	if err := s.Commit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(tx(1)); err != nil {
		t.Fatalf("second commit: %v", err)
	}
}

func TestOperationsInvalidAfterPrepare(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	if err := s.Put(bg, tx(1), "k2", "v"); !errors.Is(err, ErrTxState) {
		t.Fatalf("write after prepare: %v", err)
	}
	if _, err := s.Get(bg, tx(1), "k"); !errors.Is(err, ErrTxState) {
		t.Fatalf("read after prepare: %v", err)
	}
	if _, err := s.Prepare(tx(1)); !errors.Is(err, ErrTxState) {
		t.Fatalf("double prepare: %v", err)
	}
}

func TestHeuristicCommitThenOutcomeAbortDetected(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))

	if err := s.HeuristicDecide(tx(1), true); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadCommitted("k"); v != "v" {
		t.Fatal("heuristic commit did not apply writes")
	}
	// The coordinator's abort now arrives: the store must flag the
	// disagreement rather than silently obeying.
	if err := s.Abort(tx(1)); !errors.Is(err, ErrHeuristic) {
		t.Fatalf("outcome after heuristic: err = %v, want ErrHeuristic", err)
	}
	taken, committed := s.HeuristicTaken(tx(1))
	if !taken || !committed {
		t.Fatalf("HeuristicTaken = %v,%v", taken, committed)
	}
	s.Forget(tx(1))
	if taken, _ := s.HeuristicTaken(tx(1)); taken {
		t.Fatal("Forget did not clear heuristic record")
	}
}

func TestHeuristicRequiresPreparedState(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "k", "v")
	if err := s.HeuristicDecide(tx(1), true); !errors.Is(err, ErrTxState) {
		t.Fatalf("heuristic on active tx: %v", err)
	}
}

func TestInDoubtList(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "a", "1")
	s.Prepare(tx(1))
	s.Put(bg, tx(2), "b", "2")
	if got := s.InDoubt(); len(got) != 1 || got[0] != tx(1) {
		t.Fatalf("InDoubt = %v", got)
	}
}

func TestSnapshotAndLen(t *testing.T) {
	s, _ := newStore(t)
	s.Put(bg, tx(1), "a", "1")
	s.Put(bg, tx(1), "b", "2")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	snap := s.Snapshot()
	if len(snap) != 2 || snap["a"] != "1" || snap["b"] != "2" {
		t.Fatalf("snapshot = %v", snap)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	// The snapshot is a copy: mutating it does not affect the store.
	snap["a"] = "mutated"
	if v, _ := s.ReadCommitted("a"); v != "1" {
		t.Fatalf("snapshot aliased store state: %q", v)
	}
}
