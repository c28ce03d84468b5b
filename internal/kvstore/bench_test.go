package kvstore

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/protocol"
	"repro/internal/wal"
)

func benchStore() *Store {
	return New("db", wal.New(wal.NewMemStore()), clock.NewVirtual())
}

func BenchmarkTransactionCommit(b *testing.B) {
	s := benchStore()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := protocol.TxID{Origin: "A", Seq: uint64(i + 1)}
		if err := s.Put(ctx, tx, fmt.Sprintf("k%d", i%1024), "v"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Prepare(tx); err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadOnlyTransaction(b *testing.B) {
	s := benchStore()
	ctx := context.Background()
	seed := protocol.TxID{Origin: "A", Seq: 1}
	s.Put(ctx, seed, "k", "v")
	s.Prepare(seed)
	s.Commit(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := protocol.TxID{Origin: "A", Seq: uint64(i + 2)}
		if _, err := s.Get(ctx, tx, "k"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Prepare(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	log := wal.New(wal.NewMemStore())
	s := New("db", log, clock.NewVirtual())
	ctx := context.Background()
	for i := 0; i < 2000; i++ {
		tx := protocol.TxID{Origin: "A", Seq: uint64(i + 1)}
		s.Put(ctx, tx, fmt.Sprintf("k%d", i%128), "v")
		s.Prepare(tx)
		s.Commit(tx)
	}
	log.Sync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover("db", log, clock.NewVirtual()); err != nil {
			b.Fatal(err)
		}
	}
}
