package wal

import "fmt"

// Truncater is implemented by stores that support checkpoint
// truncation: dropping durable records, keeping those keep accepts.
type Truncater interface {
	Truncate(keep func(Record) bool) (kept, dropped int, err error)
}

// Checkpoint truncates the log: it flushes the buffer, then rewrites
// stable storage keeping only the records for which keep returns
// true. keep sees the durable records in log order, so it may hold
// state across calls (e.g. keep everything after a marker). Resource
// managers call it after writing a snapshot record so that history
// older than the snapshot can be dropped. It returns the number of
// records kept and dropped.
//
// Checkpoint holds the flush lock throughout, so no concurrent force
// hardens a record between the scan and the rewrite; appends keep
// landing in the volatile buffer meanwhile.
func (l *Log) Checkpoint(keep func(Record) bool) (kept, dropped int, err error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if err := l.flushLocked(); err != nil {
		return 0, 0, err
	}
	l.mu.Lock()
	closed, store := l.closed, l.store
	l.mu.Unlock()
	if closed {
		return 0, 0, ErrClosed
	}
	tr, ok := store.(Truncater)
	if !ok {
		return 0, 0, fmt.Errorf("wal: store %T does not support checkpointing", store)
	}
	kept, dropped, err = tr.Truncate(keep)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: checkpoint rewrite: %w", err)
	}
	return kept, dropped, nil
}

// Truncate implements Truncater for MemStore: kept records slide down
// over dropped ones inside the existing chunks, and chunks left empty
// at the end are kept as spares for the log to grow back into — a
// log that is truncated periodically reaches a steady size and stops
// allocating chunks. The volatile tail is untouched.
func (s *MemStore) Truncate(keep func(Record) bool) (kept, dropped int, err error) {
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
	return w, dropped, nil
}
