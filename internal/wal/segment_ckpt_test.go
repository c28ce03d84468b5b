package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSegmentStorePoisonedByFailedWrite: once a write fails, every
// later Append, Sync and Truncate returns that first error — a store
// whose earlier bytes may be gone must not report later syncs as
// durable.
func TestSegmentStorePoisonedByFailedWrite(t *testing.T) {
	s := openSegs(t, t.TempDir(), WithSegmentFsync(false))
	defer s.Close()
	if err := s.Append(Record{LSN: 1, Tx: "t1", Kind: "Prepared"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.cur.f.Close() // the next write to the segment fails
	s.mu.Unlock()
	if err := s.Append(Record{LSN: 2, Tx: "t2", Kind: "Prepared"}); err != nil {
		t.Fatalf("append only stages: %v", err)
	}
	first := s.Sync()
	if first == nil {
		t.Fatal("sync over a closed segment succeeded")
	}
	for name, op := range map[string]func() error{
		"append":   func() error { return s.Append(Record{LSN: 3, Tx: "t3"}) },
		"sync":     s.Sync,
		"truncate": func() error { _, _, err := s.Truncate(func(Record) bool { return true }, nil); return err },
	} {
		if err := op(); err == nil || err.Error() != first.Error() {
			t.Errorf("%s after the failure = %v, want the first error %v", name, err, first)
		}
	}
	if _, err := New(s).Force(Record{Tx: "t4"}); err == nil {
		t.Error("force over a poisoned store succeeded")
	}
}

// TestSegmentStorePoisonedByFailedSync: a failed fdatasync poisons the
// store even when no new bytes were staged.
func TestSegmentStorePoisonedByFailedSync(t *testing.T) {
	s := openSegs(t, t.TempDir())
	defer s.Close()
	s.mu.Lock()
	s.cur.f.Close()
	s.mu.Unlock()
	first := s.Sync()
	if first == nil {
		t.Fatal("fdatasync of a closed segment succeeded")
	}
	if err := s.Sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("second sync = %v, want %v", err, first)
	}
	if err := s.Append(Record{LSN: 1, Tx: "t"}); err == nil {
		t.Fatal("append to a poisoned store succeeded")
	}
}

// TestSegmentCheckpointBesideForces checkpoints repeatedly while
// writers keep forcing: every kept record survives exactly once, in
// LSN order, and a reopen reads the same log. Each writer waits for
// the first checkpoint halfway through and for the second before its
// last force, so at least two run beside the forces however the
// goroutines are scheduled.
func TestSegmentCheckpointBesideForces(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(1024))
	l := New(s)
	const writers, each = 4, 300
	var checkpoints atomic.Int64
	done := make(chan struct{}) // closed when the checkpointer stops
	awaitCheckpoints := func(n int64) {
		for checkpoints.Load() < n {
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch i {
				case each / 2:
					awaitCheckpoints(1)
				case each - 1:
					awaitCheckpoints(2)
				}
				kind := "Drop"
				if i%3 == 0 {
					kind = "Keep"
				}
				if _, err := l.Force(Record{Tx: fmt.Sprintf("w%d-%03d", w, i), Node: "N", Kind: kind}); err != nil {
					t.Errorf("force: %v", err)
					return
				}
			}
		}(w)
	}
	finished := stop(&wg)
	go func() {
		defer close(done)
		for {
			if _, _, err := l.Checkpoint(func(r Record) bool { return r.Kind == "Keep" }); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			checkpoints.Add(1)
			select {
			case <-finished:
				return
			default:
			}
		}
	}()
	wg.Wait()
	<-done
	if n := checkpoints.Load(); n < 2 {
		t.Fatalf("only %d checkpoints ran beside the writers", n)
	}
	check := func(recs []Record, when string) {
		t.Helper()
		seen := make(map[string]bool)
		var last int64
		for _, r := range recs {
			if seen[r.Tx] {
				t.Fatalf("%s: %s appears twice", when, r.Tx)
			}
			seen[r.Tx] = true
			if r.LSN <= last {
				t.Fatalf("%s: LSN %d after %d", when, r.LSN, last)
			}
			last = r.LSN
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < each; i += 3 {
				if tx := fmt.Sprintf("w%d-%03d", w, i); !seen[tx] {
					t.Fatalf("%s: kept record %s lost", when, tx)
				}
			}
		}
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	check(recs, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(1024))
	defer s2.Close()
	again, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("reopen read %d records, want %d", len(again), len(recs))
	}
	check(again, "reopened")
}

// stop returns a channel closed once wg's goroutines have finished.
func stop(wg *sync.WaitGroup) <-chan struct{} {
	c := make(chan struct{})
	go func() { wg.Wait(); close(c) }()
	return c
}

// writeCkptLog fills a small-segment store: 30 records, a checkpoint
// keeping every third, then 20 more. It returns the records the log
// holds afterwards, in order.
func writeCkptLog(t testing.TB, s *SegmentStore) []Record {
	t.Helper()
	l := New(s)
	var want []Record
	for i := 0; i < 30; i++ {
		r := Record{Tx: fmt.Sprintf("old%02d", i), Node: "N", Kind: "Committed", Data: []byte{byte(i)}}
		lsn, err := l.Force(r)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			r.LSN, r.Forced = lsn, true
			want = append(want, r)
		}
	}
	if _, _, err := l.Checkpoint(func(r Record) bool { return r.Data[0]%3 == 0 }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r := Record{Tx: fmt.Sprintf("new%02d", i), Node: "N", Kind: "Prepared"}
		lsn, err := l.Force(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN, r.Forced = lsn, true
		want = append(want, r)
	}
	return want
}

func sameRecord(a, b Record) bool {
	return a.LSN == b.LSN && a.Tx == b.Tx && a.Node == b.Node && a.Kind == b.Kind &&
		string(a.Data) == string(b.Data) && a.Forced == b.Forced
}

func sameRecords(t *testing.T, got, want []Record, when string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", when, len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", when, i, got[i], want[i])
		}
	}
}

// TestSegmentCheckpointCrashPoints stops a checkpoint at each crash
// point and reopens the directory: before the swap the whole log
// survives; after it the kept records do, and the rewritten segments
// left on disk are recycled at the open.
func TestSegmentCheckpointCrashPoints(t *testing.T) {
	for _, stage := range []string{"before-swap", "after-swap"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
			l := New(s)
			var all, kept []Record
			for i := 0; i < 30; i++ {
				r := Record{Tx: fmt.Sprintf("t%02d", i), Node: "N", Kind: "Committed"}
				lsn, err := l.Force(r)
				if err != nil {
					t.Fatal(err)
				}
				r.LSN, r.Forced = lsn, true
				all = append(all, r)
				if i%2 == 0 {
					kept = append(kept, r)
				}
			}
			_, _, err := l.CheckpointAt(func(r Record) bool { return r.LSN%2 == 1 }, func(at string) bool { return at == stage })
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("checkpoint stopped at %s = %v, want ErrClosed", stage, err)
			}
			want := all
			if stage == "after-swap" {
				want = kept
			}
			recs, err := s.Records()
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, recs, want, "in process")
			s.Close()

			s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
			defer s2.Close()
			recs, err = s2.Records()
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, recs, want, "reopened")
			for _, name := range segNames(t, dir) {
				if strings.HasPrefix(name, "ckpt-") {
					t.Fatalf("temporary checkpoint segment %s survived the open", name)
				}
			}
		})
	}
}

// TestSegmentCheckpointRenameRecovery: a crash between the manifest
// swap and the checkpoint segment's rename leaves the segment under its
// temporary name; the next open completes the rename.
func TestSegmentCheckpointRenameRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	want := writeCkptLog(t, s)
	s.mu.Lock()
	start := s.start
	s.mu.Unlock()
	s.Close()
	final := filepath.Join(dir, fmt.Sprintf("g%06d-%08d.seg", 1, start))
	if err := os.Rename(final, filepath.Join(dir, fmt.Sprintf("ckpt-%08d.seg", start))); err != nil {
		t.Fatal(err)
	}
	s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	defer s2.Close()
	recs, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, recs, want, "reopened")
}

// TestSegmentCheckpointRecyclesSegments: a log checkpointed as it grows
// holds a bounded number of segment files however much is written.
func TestSegmentCheckpointRecyclesSegments(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(512))
	defer s.Close()
	l := New(s)
	most := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 50; i++ {
			if _, err := l.Force(Record{Tx: fmt.Sprintf("r%d-%d", round, i), Node: "N", Kind: "Committed"}); err != nil {
				t.Fatal(err)
			}
		}
		// Keep only the latest round, as a participant keeps only what
		// it still remembers.
		prefix := fmt.Sprintf("r%d-", round)
		if _, _, err := l.Checkpoint(func(r Record) bool { return strings.HasPrefix(r.Tx, prefix) }); err != nil {
			t.Fatal(err)
		}
		most = max(most, len(segNames(t, dir)))
	}
	if most > 20 {
		t.Fatalf("segment files peaked at %d; checkpoints are not recycling", most)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("log holds %d records after the last checkpoint, want 50", len(recs))
	}
}

func segNames(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// FuzzSegmentRecover damages a checkpointed segment directory — the
// input is a list of (file, offset, xor) triples applied to its live
// segment files — and reopens it: the open either fails cleanly or
// recovers a prefix of the records the log held, and keeps accepting
// appends.
func FuzzSegmentRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 20, 0x01})
	f.Add([]byte{1, 0, 40, 0xff, 2, 0, 3, 0x80})
	f.Add([]byte{3, 0, 0, 0x57})
	f.Add([]byte{0, 0, 5, 0x10, 0, 0, 9, 0x04})
	f.Fuzz(func(t *testing.T, damage []byte) {
		dir := t.TempDir()
		s, err := OpenSegmentStore(dir, WithSegmentFsync(false), WithSegmentBytes(256))
		if err != nil {
			t.Fatal(err)
		}
		want := writeCkptLog(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var live []string
		for _, name := range segNames(t, dir) {
			if strings.HasPrefix(name, "g") {
				live = append(live, filepath.Join(dir, name))
			}
		}
		for ; len(damage) >= 4; damage = damage[4:] {
			path := live[int(damage[0])%len(live)]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := (int(damage[1])<<8 | int(damage[2])) % len(data)
			data[off] ^= damage[3]
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		s2, err := OpenSegmentStore(dir, WithSegmentFsync(false), WithSegmentBytes(256))
		if err != nil {
			return // refused cleanly
		}
		defer s2.Close()
		got, err := s2.Records()
		if err != nil {
			t.Fatalf("records after a successful open: %v", err)
		}
		if len(got) > len(want) {
			t.Fatalf("recovered %d records from a log of %d", len(got), len(want))
		}
		for i := range got {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("record %d = %+v, want %+v: not a prefix", i, got[i], want[i])
			}
		}
		after := Record{LSN: 1 << 20, Tx: "after", Node: "N", Kind: "End"}
		if err := s2.Append(after); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s2.Sync(); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
		again, err := s2.Records()
		if err != nil || len(again) != len(got)+1 || !sameRecord(again[len(got)], after) {
			t.Fatalf("append after recovery not read back: %d records after %d, %v", len(again), len(got), err)
		}
	})
}

// TestSegmentRecycledTailIsNotDamage: a segment recycled from a retired
// file keeps the old file's bytes past its records; once sealed, its
// terminator ends the scan there, so the open reads every later
// segment instead of taking the stale tail for damage.
func TestSegmentRecycledTailIsNotDamage(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	l := New(s)
	for i := 0; i < 40; i++ {
		// One record filling each 256-byte segment to its end: the
		// file's old bytes are nonzero wherever the new, smaller
		// records stop.
		if _, err := l.Force(Record{Tx: fmt.Sprintf("old%02d", i), Node: "N", Kind: "Committed", Data: []byte(strings.Repeat("x", 210))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.Checkpoint(func(Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 40; i++ {
		r := Record{Tx: fmt.Sprintf("n%d", i), Node: "N", Kind: "End"}
		lsn, err := l.Force(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN, r.Forced = lsn, true
		want = append(want, r)
	}
	if s.Rollovers() < 4 {
		t.Fatalf("only %d rollovers; the test needs recycled segments sealed", s.Rollovers())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want, "reopened")
}
