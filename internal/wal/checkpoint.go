package wal

import "fmt"

// Rewriter is implemented by stores that support checkpoint
// truncation: atomically replacing the durable record set.
type Rewriter interface {
	ReplaceAll(recs []Record) error
}

// Checkpoint truncates the log: it flushes the buffer, then rewrites
// stable storage keeping only the records for which keep returns
// true. Resource managers call it after writing a snapshot record so
// that history older than the snapshot can be dropped. It returns the
// number of records kept and dropped.
func (l *Log) Checkpoint(keep func(Record) bool) (kept, dropped int, err error) {
	if err := l.flush(); err != nil {
		return 0, 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	rw, ok := l.store.(Rewriter)
	if !ok {
		return 0, 0, fmt.Errorf("wal: store %T does not support checkpointing", l.store)
	}
	recs, err := l.store.Records()
	if err != nil {
		return 0, 0, err
	}
	var keepers []Record
	for _, r := range recs {
		if keep(r) {
			keepers = append(keepers, r)
		} else {
			dropped++
		}
	}
	if err := rw.ReplaceAll(keepers); err != nil {
		return 0, 0, fmt.Errorf("wal: checkpoint rewrite: %w", err)
	}
	return len(keepers), dropped, nil
}

// ReplaceAll implements Rewriter for MemStore.
func (s *MemStore) ReplaceAll(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable, s.size = nil, 0
	s.harden(recs)
	s.dropVolatile()
	return nil
}
