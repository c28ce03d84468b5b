package wal

import (
	"errors"
	"fmt"
)

// Truncater is implemented by stores that support checkpoint
// truncation: dropping durable records, keeping those keep accepts.
type Truncater interface {
	// Truncate drops the durable records keep rejects. at, if non-nil,
	// is consulted at the truncation's two crash points: "before-swap",
	// just before it commits, and "after-swap", just after, before any
	// retired storage is reused. When at reports true, Truncate stops
	// there with ErrClosed, leaving storage as a crash would.
	Truncate(keep func(Record) bool, at func(stage string) bool) (kept, dropped int, err error)
	// TruncatesBesideForces reports whether Truncate orders its own
	// commit with concurrent Syncs. When it does not, the log holds its
	// flush lock around Truncate, so no force hardens a record between
	// the scan and the rewrite.
	TruncatesBesideForces() bool
	// CheckpointFloor is the least log growth, in bytes, that a
	// truncation can give storage back for; a caller that checkpoints
	// as its log grows waits for at least this much.
	CheckpointFloor() int64
}

// Checkpoint truncates the log: it flushes the buffer, then rewrites
// stable storage keeping only the records for which keep returns
// true. keep sees the durable records in log order, so it may hold
// state across calls (e.g. keep everything after a marker), but it
// must not retain a record's strings or Data: a store may hand it a
// view of its scan buffer. Resource managers call it after writing a
// snapshot record so that history older than the snapshot can be
// dropped. It returns the number of records kept and dropped.
//
// A store that truncates beside forces (a SegmentStore: it seals what
// the flush hardened and orders only its manifest swap with them) runs
// the rewrite beside concurrent appends and forces. On any other store
// Checkpoint holds the flush lock throughout, so no concurrent force
// hardens a record between the scan and the rewrite; appends keep
// landing in the volatile buffer meanwhile.
func (l *Log) Checkpoint(keep func(Record) bool) (kept, dropped int, err error) {
	return l.CheckpointAt(keep, nil)
}

// CheckpointAt is Checkpoint with crash points: at, if non-nil, is
// consulted just before the truncation commits ("before-swap") and
// just after it, before retired storage is recycled ("after-swap").
// When it reports true the checkpoint stops there and returns
// ErrClosed, leaving storage exactly as a crash at that point would.
func (l *Log) CheckpointAt(keep func(Record) bool, at func(stage string) bool) (kept, dropped int, err error) {
	l.flushMu.Lock()
	if err := l.flushLocked(); err != nil {
		l.flushMu.Unlock()
		return 0, 0, err
	}
	l.mu.Lock()
	closed, store := l.closed, l.store
	l.mu.Unlock()
	if closed {
		l.flushMu.Unlock()
		return 0, 0, ErrClosed
	}
	tr, ok := store.(Truncater)
	if !ok {
		l.flushMu.Unlock()
		return 0, 0, fmt.Errorf("wal: store %T does not support checkpointing", store)
	}
	if tr.TruncatesBesideForces() {
		l.flushMu.Unlock()
	} else {
		defer l.flushMu.Unlock()
	}
	kept, dropped, err = tr.Truncate(keep, func(stage string) bool {
		return l.isClosed() || (at != nil && at(stage))
	})
	if errors.Is(err, ErrClosed) {
		return kept, dropped, err
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: checkpoint rewrite: %w", err)
	}
	return kept, dropped, nil
}

// isClosed reports whether the log was closed or crashed.
func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Truncate implements Truncater for MemStore: kept records slide down
// over dropped ones inside the existing chunks, and chunks left empty
// at the end are kept as spares for the log to grow back into — a
// log that is truncated periodically reaches a steady size and stops
// allocating chunks. The volatile tail is untouched. The compaction
// happens in place under the store mutex, so at's two crash points
// fall before and after it.
func (s *MemStore) Truncate(keep func(Record) bool, at func(stage string) bool) (kept, dropped int, err error) {
	if at != nil && at("before-swap") {
		return 0, 0, ErrClosed
	}
	kept, dropped = s.compact(keep)
	if at != nil && at("after-swap") {
		return kept, dropped, ErrClosed
	}
	return kept, dropped, nil
}

// TruncatesBesideForces implements Truncater: a MemStore's Truncate
// must not race a Sync moving records from the volatile tail.
func (s *MemStore) TruncatesBesideForces() bool { return false }

// CheckpointFloor implements Truncater: 256 KiB, so a log whose kept
// set is tiny is not compacted every few records.
func (s *MemStore) CheckpointFloor() int64 { return 256 << 10 }

func (s *MemStore) compact(keep func(Record) bool) (kept, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := func(i int) *Record { return &s.durable[i/memChunk][i%memChunk] }
	w := 0
	for r := 0; r < s.size; r++ {
		if !keep(*at(r)) {
			continue
		}
		if w != r {
			*at(w) = *at(r)
		}
		w++
	}
	for i := w; i < s.size; i++ {
		*at(i) = Record{} // drop the payload references
	}
	chunks := (w + memChunk - 1) / memChunk
	for i := chunks; i < len(s.durable); i++ {
		s.spare = append(s.spare, s.durable[i][:0])
		s.durable[i] = nil
	}
	s.durable = s.durable[:chunks]
	if chunks > 0 {
		s.durable[chunks-1] = s.durable[chunks-1][:w-(chunks-1)*memChunk]
	}
	dropped = s.size - w
	s.size = w
	return w, dropped
}
