package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

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
			s.durable = append(s.durable, make([]Record, 0, memChunk))
			last++
		}
		n := min(len(recs), memChunk-len(s.durable[last]))
		s.durable[last] = append(s.durable[last], recs[:n]...)
		s.size += n
		recs = recs[n:]
	}
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

// lineEncoder writes records as newline-delimited JSON, the
// FileStore's on-disk format.
type lineEncoder struct{ w *bufio.Writer }

func newLineEncoder(w io.Writer) *lineEncoder { return &lineEncoder{w: bufio.NewWriter(w)} }

func (e *lineEncoder) encode(r Record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("wal: encode record: %w", err)
	}
	if _, err := e.w.Write(data); err != nil {
		return err
	}
	return e.w.WriteByte('\n')
}

func (e *lineEncoder) flush() error { return e.w.Flush() }

// FileStore is a Store backed by a newline-delimited JSON file. Sync
// calls (*os.File).Sync, so records survive process crashes; the
// in-process volatile tail is the bufio writer.
type FileStore struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	w     *bufio.Writer
	syncs int
	fsync bool // whether Sync issues a real fsync (off speeds up tests)
}

// FileStoreOption configures a FileStore.
type FileStoreOption func(*FileStore)

// WithFsync controls whether Sync issues a physical fsync. The
// default is true; benchmarks that only count operations turn it off.
func WithFsync(on bool) FileStoreOption {
	return func(s *FileStore) { s.fsync = on }
}

// OpenFileStore opens (creating if needed, appending if existing) a
// file-backed store at path.
func OpenFileStore(path string, opts ...FileStoreOption) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	s := &FileStore{path: path, f: f, w: bufio.NewWriter(f), fsync: true}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Append encodes rec as one JSON line in the write buffer.
func (s *FileStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: encode record: %w", err)
	}
	if _, err := s.w.Write(data); err != nil {
		return err
	}
	return s.w.WriteByte('\n')
}

// Sync flushes the buffer and fsyncs the file.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.fsync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.syncs++
	return nil
}

// Records re-reads the file and returns every record that reached it.
// The write buffer is flushed first so the result includes synced
// records; a real crash would lose the unflushed tail, which is
// exactly the volatility the Log models.
//
// The scan is torn-tail tolerant: a crash mid-append can leave a
// truncated or garbled final line, and recovery must come back with
// every whole record rather than fail. Scanning stops at the first
// line that is incomplete (no trailing newline) or does not parse.
func (s *FileStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline never finished being
			// written; it is the torn tail.
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wal: scan %s: %w", s.path, err)
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		out = append(out, rec)
	}
	return out, nil
}

// Syncs reports the number of Sync calls completed.
func (s *FileStore) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// Close flushes and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Close()
}
