package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openSegs(t *testing.T, dir string, opts ...SegmentOption) *SegmentStore {
	t.Helper()
	s, err := OpenSegmentStore(dir, opts...)
	if err != nil {
		t.Fatalf("open segment store: %v", err)
	}
	return s
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false))
	want := []Record{
		{LSN: 1, Tx: "t1", Node: "C", Kind: "Prepared", Forced: true},
		{LSN: 2, Tx: "t1", Node: "C", Kind: "Committed", Data: []byte("payload"), Forced: true},
		{LSN: 3, Tx: "t2", Node: "S", Kind: "LRMUpdate"},
	}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, err := s.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Tx != want[i].Tx || got[i].Node != want[i].Node ||
			got[i].Kind != want[i].Kind || string(got[i].Data) != string(want[i].Data) ||
			got[i].Forced != want[i].Forced {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestLogOverSegmentStore: the Log's volatile-buffer model sits on the
// segment store unchanged — an append rides the next force to disk.
func TestLogOverSegmentStore(t *testing.T) {
	s := openSegs(t, t.TempDir(), WithSegmentFsync(false))
	defer s.Close()
	l := New(s)
	l.Append(rec("t1", "LRMUpdate"))
	l.Force(rec("t1", "Prepared"))
	got, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
}

// TestSegmentStoreRefusesRegularFile: a -wal path naming a plain file
// (an old newline-JSON log, say) is refused, never reinterpreted.
func TestSegmentStoreRefusesRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	if err := os.WriteFile(path, []byte("{\"LSN\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenSegmentStore(path, WithSegmentFsync(false)); err == nil {
		s.Close()
		t.Fatal("opened a regular file as a segment directory")
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"LSN\":1}\n" {
		t.Fatalf("refused file was modified: %q", data)
	}
}

func TestSegmentStoreReopenAcrossRollovers(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	const n = 50
	for i := 0; i < n; i++ {
		rec := Record{LSN: int64(i + 1), Tx: fmt.Sprintf("tx%03d", i), Node: "C", Kind: "Committed"}
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if s.Rollovers() == 0 {
		t.Fatalf("expected rollovers with 256-byte segments")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatalf("records after reopen: %v", err)
	}
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
		}
	}
	// The store must keep accepting writes at the recovered position.
	if err := s2.Append(Record{LSN: n + 1, Tx: "after", Kind: "Committed"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
	got, _ = s2.Records()
	if len(got) != n+1 || got[n].Tx != "after" {
		t.Fatalf("post-reopen append missing: %d records", len(got))
	}
}

// lastLiveSegment returns the path of the highest-indexed live
// segment file in dir.
func lastLiveSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "g") && strings.HasSuffix(e.Name(), ".seg") {
			if p := filepath.Join(dir, e.Name()); p > last {
				last = p
			}
		}
	}
	if last == "" {
		t.Fatalf("no live segment in %s", dir)
	}
	return last
}

func TestSegmentStoreTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false))
	for i := 0; i < 5; i++ {
		if err := s.Append(Record{LSN: int64(i + 1), Tx: fmt.Sprintf("t%d", i), Kind: "Prepared"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_, end5, _, err := readSegment(lastLiveSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{LSN: 6, Tx: "torn", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash that tore the final record: cut it mid-payload,
	// leaving the file shorter than the preallocated size.
	seg := lastLiveSegment(t, dir)
	if err := os.Truncate(seg, end5+5); err != nil {
		t.Fatal(err)
	}

	s2 := openSegs(t, dir, WithSegmentFsync(false))
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatalf("recovery scan: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want 5 (torn tail dropped)", len(got))
	}
	// New appends land cleanly after the recovered tail.
	if err := s2.Append(Record{LSN: 6, Tx: "fresh", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ = s2.Records()
	if len(got) != 6 || got[5].Tx != "fresh" {
		t.Fatalf("append after torn-tail recovery: got %d records", len(got))
	}
}

func TestSegmentStoreBadCRCTail(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false))
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{LSN: int64(i + 1), Tx: fmt.Sprintf("t%d", i), Kind: "Prepared"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_, end2of3, _, err := readSegment(lastLiveSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a byte inside the last record's payload: the length prefix
	// is intact but the checksum no longer matches.
	seg := lastLiveSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, end2of3-2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openSegs(t, dir, WithSegmentFsync(false))
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatalf("recovery scan: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2 (bad-CRC tail dropped)", len(got))
	}
}

func TestSegmentStoreCheckpointAndRecycle(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	l := New(s)
	for i := 0; i < 40; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("old%02d", i), Kind: "Committed"}); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped, err := l.Checkpoint(func(r Record) bool { return strings.HasPrefix(r.Tx, "old3") })
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if kept != 10 || dropped != 30 {
		t.Fatalf("kept %d dropped %d, want 10/30", kept, dropped)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("post-checkpoint records = %d, want 10", len(recs))
	}
	// Retired segments went to the free pool, not the bin.
	entries, _ := os.ReadDir(dir)
	frees := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "free-") {
			frees++
		}
	}
	if frees == 0 {
		t.Fatalf("no recycled segments after checkpoint")
	}

	// Keep writing: recycled files are reused, and their stale
	// records can never resurface (per-segment CRC seed).
	for i := 0; i < 40; i++ {
		if _, err := l.Force(Record{Tx: fmt.Sprintf("new%d", i), Kind: "Committed"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("recovered %d records, want 50", len(got))
	}
	for _, r := range got {
		if !strings.HasPrefix(r.Tx, "old3") && !strings.HasPrefix(r.Tx, "new") {
			t.Fatalf("stale record resurfaced: %+v", r)
		}
	}
}

func TestSegmentStoreOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, WithSegmentFsync(false), WithSegmentBytes(256))
	defer s.Close()
	big := Record{LSN: 1, Tx: "big", Kind: "Committed", Data: make([]byte, 4096)}
	for i := range big.Data {
		big.Data[i] = byte(i)
	}
	if err := s.Append(Record{LSN: 0, Tx: "small", Kind: "Prepared"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(big); err != nil {
		t.Fatalf("append oversized: %v", err)
	}
	if err := s.Append(Record{LSN: 2, Tx: "after", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[1].Data) != 4096 || got[1].Data[100] != 100 {
		t.Fatalf("oversized record did not round-trip: %d records", len(got))
	}
}

// TestFsyncSmoke is the guard scripts/check.sh runs: with fsync on,
// physical syncs must actually reach the device; with it off, none
// may. A regression to no-op syncs fails the first half.
func TestFsyncSmoke(t *testing.T) {
	dirOn := t.TempDir()
	on := openSegs(t, dirOn) // fsync defaults on
	if err := on.Append(Record{LSN: 1, Tx: "t", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}
	if err := on.Sync(); err != nil {
		t.Fatal(err)
	}
	if on.PhysSyncs() == 0 {
		t.Fatalf("fsync on: no physical syncs reached the device")
	}
	on.Close()

	off := openSegs(t, t.TempDir(), WithSegmentFsync(false))
	if err := off.Append(Record{LSN: 1, Tx: "t", Kind: "Committed"}); err != nil {
		t.Fatal(err)
	}
	if err := off.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := off.PhysSyncs(); n != 0 {
		t.Fatalf("fsync off: %d physical syncs issued", n)
	}
	off.Close()
}

// TestSegmentStoreDiskStallGroupCommit injects a 5ms device stall and
// shows the adaptive pipeline amortizes it across concurrent forcers
// where per-force sync pays it every time.
func TestSegmentStoreDiskStallGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("stall injection sleeps for real")
	}
	run := func(policy SyncPolicy) (forces, physSyncs int) {
		s := openSegs(t, t.TempDir(), WithSegmentFsync(false),
			WithSyncHook(func() { time.Sleep(5 * time.Millisecond) }))
		defer s.Close()
		// fsync off keeps the test device-independent: the injected
		// stall plays the role of the slow flush, and counting store
		// syncs (each paying one stall) is the measure.
		l := New(s).WithPolicy(policy)
		defer l.Close()
		const workers, each = 16, 4
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < each; j++ {
					if _, err := l.Force(Record{Tx: fmt.Sprintf("t%d-%d", i, j)}); err != nil {
						t.Errorf("force: %v", err)
					}
				}
			}(i)
		}
		wg.Wait()
		return workers * each, l.Stats().Syncs
	}

	immForces, immSyncs := run(ImmediateSync{})
	adForces, adSyncs := run(NewPipeline(nil, 10*time.Millisecond))
	if immForces != adForces {
		t.Fatalf("force counts differ: %d vs %d", immForces, adForces)
	}
	if adSyncs*3 > immSyncs {
		t.Fatalf("pipeline did not amortize the stall: %d syncs vs immediate %d", adSyncs, immSyncs)
	}
}
