package kvstore

import (
	"testing"

	"repro/internal/protocol"
)

func TestReadOnlyVotesDisabledRunsFullProtocol(t *testing.T) {
	s, log := newStore(t, WithReadOnlyVotes(false))
	// Seed.
	s.Put(bg, tx(1), "k", "v")
	s.Prepare(tx(1))
	s.Commit(tx(1))
	base := log.Stats()

	// A pure read must now vote YES, log, and keep its locks.
	if _, err := s.Get(bg, tx(2), "k"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Prepare(tx(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Vote != protocol.VoteYes {
		t.Fatalf("vote = %v, want yes (read-only votes disabled)", res.Vote)
	}
	if st := log.Stats(); st.Forces == base.Forces {
		t.Fatal("full protocol should force a prepared record")
	}
	// Lock is still held until the outcome arrives.
	if err := s.Put(bg, tx(3), "k", "x"); err == nil {
		t.Fatal("lock released before outcome despite disabled read-only votes")
	}
	if err := s.Commit(tx(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bg, tx(3), "k", "x"); err != nil {
		t.Fatalf("lock not released after commit: %v", err)
	}
}
