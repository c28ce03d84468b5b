package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fill appends n records to s, syncing after every batch of them and
// after the last, and returns the kinds it wrote in order. batch 0
// never syncs: the records stay volatile.
func fill(t *testing.T, s *MemStore, from, n, batch int) []string {
	t.Helper()
	var kinds []string
	for i := from; i < from+n; i++ {
		k := fmt.Sprintf("r%d", i)
		if err := s.Append(Record{LSN: int64(i + 1), Kind: k, Data: []byte(k)}); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, k)
		if batch > 0 && ((i-from+1)%batch == 0 || i == from+n-1) {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return kinds
}

func checkKinds(t *testing.T, s *MemStore, want []string) {
	t.Helper()
	got, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d durable records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Kind != want[i] || string(r.Data) != want[i] {
			t.Fatalf("record %d = %s/%q, want %s", i, r.Kind, r.Data, want[i])
		}
	}
}

// TestMemStoreAcrossChunks hardens records in syncs that straddle
// chunk boundaries, then in one sync larger than two chunks, and reads
// them back in order.
func TestMemStoreAcrossChunks(t *testing.T) {
	s := NewMemStore()
	want := fill(t, s, 0, 3*memChunk+18, 7)
	checkKinds(t, s, want)
	want = append(want, fill(t, s, 5000, 2*memChunk+5, 2*memChunk+5)...)
	checkKinds(t, s, want)
}

// TestMemStoreDropUnsyncedAcrossChunks discards a volatile tail that
// would have spilled into a new chunk, then keeps working.
func TestMemStoreDropUnsyncedAcrossChunks(t *testing.T) {
	s := NewMemStore()
	want := fill(t, s, 0, memChunk-3, memChunk-3)
	fill(t, s, memChunk-3, 10, 0)
	if n := s.DropUnsynced(); n != 10 {
		t.Fatalf("DropUnsynced = %d, want 10", n)
	}
	checkKinds(t, s, want)
	want = append(want, fill(t, s, 1000, memChunk+1, memChunk+1)...)
	checkKinds(t, s, want)
	if n := s.DropUnsynced(); n != 0 {
		t.Fatalf("DropUnsynced after sync = %d, want 0", n)
	}
}

// TestMemStoreFailNextAcrossChunks injects a sync failure mid-log: the
// failed sync hardens nothing, and the retried sync hardens the tail
// exactly once.
func TestMemStoreFailNextAcrossChunks(t *testing.T) {
	s := NewMemStore()
	want := fill(t, s, 0, memChunk+20, 9)
	tail := fill(t, s, memChunk+20, memChunk, 0)
	boom := errors.New("device gone")
	s.FailNext(boom)
	if err := s.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want %v", err, boom)
	}
	checkKinds(t, s, want)
	s.FailNext(boom)
	if err := s.Append(Record{Kind: "lost"}); !errors.Is(err, boom) {
		t.Fatalf("Append = %v, want %v", err, boom)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	checkKinds(t, s, append(want, tail...))
}

// TestCheckpointAcrossChunks checkpoints a multi-chunk log through
// Log.Checkpoint (MemStore.Truncate) and keeps appending after it.
func TestCheckpointAcrossChunks(t *testing.T) {
	s := NewMemStore()
	l := New(s)
	var want []string
	for i := 0; i < 3*memChunk+9; i++ {
		k := fmt.Sprintf("r%d", i)
		if _, err := l.Append(Record{Kind: k}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			want = append(want, k)
		}
	}
	keep := map[string]bool{}
	for _, k := range want {
		keep[k] = true
	}
	kept, dropped, err := l.Checkpoint(func(r Record) bool { return keep[r.Kind] })
	if err != nil {
		t.Fatal(err)
	}
	if kept != len(want) || kept+dropped != 3*memChunk+9 {
		t.Fatalf("kept=%d dropped=%d, want %d kept of %d", kept, dropped, len(want), 3*memChunk+9)
	}
	for i := 0; i < memChunk; i++ {
		k := fmt.Sprintf("after%d", i)
		if _, err := l.Force(Record{Kind: k}); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	got, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records after checkpoint, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Kind != want[i] {
			t.Fatalf("record %d = %s, want %s", i, r.Kind, want[i])
		}
	}
}

// TestConcurrentAppendForceKeepsLSNOrder races appenders and forcers
// on one Log while flushes hand their buffers back for reuse: the
// store must end up with every LSN exactly once, in order, each
// carrying the payload its writer gave it.
func TestConcurrentAppendForceKeepsLSNOrder(t *testing.T) {
	s := NewMemStore()
	l := New(s)
	const writers, each = 6, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r := Record{Tx: fmt.Sprintf("w%d", w), Data: []byte(fmt.Sprintf("w%d-%d", w, j))}
				var err error
				if (w+j)%3 == 0 {
					_, err = l.Force(r)
				} else {
					_, err = l.Append(r)
				}
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*each {
		t.Fatalf("store holds %d records, want %d", len(got), writers*each)
	}
	next := map[string]int{}
	for i, r := range got {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d: store lost, duplicated or reordered an LSN", i, r.LSN)
		}
		if want := fmt.Sprintf("%s-%d", r.Tx, next[r.Tx]); string(r.Data) != want {
			t.Fatalf("LSN %d carries %q, want %q", r.LSN, r.Data, want)
		}
		next[r.Tx]++
	}
}
