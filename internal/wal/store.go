package wal

import "sync"

// MemStore is an in-memory Store. It models a disk: records appended
// but not yet synced live in a volatile tail that a simulated crash
// (DropUnsynced) can discard; synced records are durable.
//
// Durable records sit in fixed-size chunks, so a Sync copies only the
// tail it hardens: a log that grows every commit (a resource manager's
// redo log) is never re-copied as a whole, and the volatile tail's
// backing array is reused from one Sync to the next.
type MemStore struct {
	mu       sync.Mutex
	durable  [][]Record // full chunks of memChunk records, the last one possibly partial
	spare    [][]Record // emptied chunks a Truncate released, reused before allocating
	size     int        // durable records across all chunks
	volatile []Record
	syncs    int
	failNext error // injected fault for the next operation
}

// memChunk is the number of records per durable chunk.
const memChunk = 256

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// FailNext arranges for the next Append or Sync to return err once.
// Tests use it to exercise error paths.
func (s *MemStore) FailNext(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = err
}

func (s *MemStore) takeFault() error {
	err := s.failNext
	s.failNext = nil
	return err
}

// Append buffers rec in the volatile tail.
func (s *MemStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeFault(); err != nil {
		return err
	}
	s.volatile = append(s.volatile, rec)
	return nil
}

// Sync hardens the volatile tail.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeFault(); err != nil {
		return err
	}
	s.harden(s.volatile)
	s.dropVolatile()
	s.syncs++
	return nil
}

// harden appends recs to the durable chunks. Caller holds s.mu.
func (s *MemStore) harden(recs []Record) {
	for len(recs) > 0 {
		last := len(s.durable) - 1
		if last < 0 || len(s.durable[last]) == memChunk {
			s.durable = append(s.durable, s.newChunk())
			last++
		}
		n := min(len(recs), memChunk-len(s.durable[last]))
		s.durable[last] = append(s.durable[last], recs[:n]...)
		s.size += n
		recs = recs[n:]
	}
}

// newChunk returns an empty chunk, a spare one if a truncation left
// any. Caller holds s.mu.
func (s *MemStore) newChunk() []Record {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return c
	}
	return make([]Record, 0, memChunk)
}

// dropVolatile empties the volatile tail, keeping its backing array.
// Caller holds s.mu.
func (s *MemStore) dropVolatile() int {
	n := len(s.volatile)
	clear(s.volatile)
	s.volatile = s.volatile[:0]
	return n
}

// Records returns the durable records only.
func (s *MemStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, s.size)
	for _, c := range s.durable {
		out = append(out, c...)
	}
	return out, nil
}

// Syncs reports the number of physical syncs performed.
func (s *MemStore) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// DropUnsynced simulates a device-level crash, discarding the
// volatile tail. It returns how many records were lost.
func (s *MemStore) DropUnsynced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropVolatile()
}
