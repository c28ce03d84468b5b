package wal

import "testing"

func TestCheckpointMemStore(t *testing.T) {
	l := New(NewMemStore())
	for i := 0; i < 10; i++ {
		kind := "Old"
		if i >= 5 {
			kind = "New"
		}
		if _, err := l.Force(Record{Tx: "t", Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped, err := l.Checkpoint(func(r Record) bool { return r.Kind == "New" })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || dropped != 5 {
		t.Fatalf("kept=%d dropped=%d", kept, dropped)
	}
	recs, _ := l.Records()
	if len(recs) != 5 {
		t.Fatalf("records after checkpoint = %d", len(recs))
	}
	for _, r := range recs {
		if r.Kind != "Old" && r.Kind != "New" {
			t.Fatalf("unexpected record %+v", r)
		}
		if r.Kind == "Old" {
			t.Fatalf("dropped record survived: %+v", r)
		}
	}
}

func TestCheckpointFlushesBufferFirst(t *testing.T) {
	l := New(NewMemStore())
	l.Append(Record{Tx: "t", Kind: "Buffered"})
	kept, _, err := l.Checkpoint(func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Fatalf("buffered record lost by checkpoint: kept=%d", kept)
	}
}

func TestCheckpointClosedLog(t *testing.T) {
	l := New(NewMemStore())
	l.Crash()
	if _, _, err := l.Checkpoint(func(Record) bool { return true }); err == nil {
		t.Fatal("checkpoint of crashed log succeeded")
	}
}

// TestCheckpointSegmentStoreRewrite checkpoints a disk-backed log:
// the rewrite lands in a new segment generation, which keeps accepting
// appends and survives a reopen.
func TestCheckpointSegmentStoreRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir, WithSegmentFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := New(s)
	for i := 0; i < 8; i++ {
		kind := "Drop"
		if i%2 == 0 {
			kind = "Keep"
		}
		if _, err := l.Force(Record{Tx: "t", Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped, err := l.Checkpoint(func(r Record) bool { return r.Kind == "Keep" })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 4 || dropped != 4 {
		t.Fatalf("kept=%d dropped=%d", kept, dropped)
	}
	// The rewritten log continues to accept appends.
	if _, err := l.Force(Record{Tx: "t", Kind: "After"}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].Kind != "After" {
		t.Fatalf("records = %+v", recs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmentStore(dir, WithSegmentFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err = s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Kind != "Keep" || recs[4].Kind != "After" {
		t.Fatalf("records after reopen = %+v", recs)
	}
}
