// Package wal implements the write-ahead logging substrate the commit
// protocols stand on.
//
// The paper's cost model distinguishes forced log writes — the
// protocol stalls until the record is in stable storage — from
// non-forced writes, which sit in a volatile buffer until the next
// force (or some other log-manager event) hardens them. A system
// crash loses the buffer but never synced records. Log exposes
// exactly this model, plus the two log-manager optimizations of §4:
// group commit (SyncPolicy, and the combining force Pipeline) and
// log sharing between a transaction manager and its local resource
// managers (a single *Log passed to both; see Stats for how forces
// are attributed).
package wal

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Record is one log entry. Kind and Tx are free-form strings so the
// log stays independent of the protocol layer; Node records the
// participant that wrote the entry (useful when logs are shared).
type Record struct {
	LSN    int64  // assigned by the Log on append
	Tx     string // transaction identifier, may be empty
	Node   string // writing participant
	Kind   string // e.g. "Prepared", "Committed", "LRMUpdate"
	Data   []byte // opaque payload
	Forced bool   // whether the writer requested a force for this record
}

// Store is stable storage for log records. Append buffers a record in
// the store's volatile tail; Sync hardens everything appended so far.
// Records returns only hardened entries — it is the recovery scan.
type Store interface {
	Append(rec Record) error
	Sync() error
	Records() ([]Record, error)
	// Syncs reports how many physical sync operations the store has
	// performed; group commit exists to shrink this number.
	Syncs() int
}

// ErrClosed is returned by operations on a closed or crashed log.
var ErrClosed = errors.New("wal: log is closed")

// Observer is notified of every logical write. The protocol engine
// installs an observer that feeds the trace and metrics layers.
type Observer func(rec Record)

// Stats summarizes a Log's activity.
type Stats struct {
	Appends int // total logical writes
	Forces  int // logical force requests (the paper's "forced writes")
	Syncs   int // physical syncs issued to the store
	Lost    int // buffered records discarded by Crash
}

// SyncsPerForce is the measured group-commit amortization factor: the
// paper's forced-write columns assume one physical sync per force;
// batching drives this ratio toward 1/batch-size. Zero forces yield 0.
func (s Stats) SyncsPerForce() float64 {
	if s.Forces == 0 {
		return 0
	}
	return float64(s.Syncs) / float64(s.Forces)
}

// Log is a write-ahead log manager. It is safe for concurrent use.
type Log struct {
	// flushMu serializes flush end to end (buffer snapshot + store
	// append + sync) so records reach the store in LSN order even when
	// several forcers (or Close racing a Pipeline leader) flush
	// concurrently. It is always acquired before mu, never inside it.
	flushMu sync.Mutex

	mu        sync.Mutex
	store     Store
	buffered  []Record // records appended to the Log but not yet handed to the store (lost on Crash)
	spare     []Record // the last flushed buffer, emptied, for buffered to reuse
	nextLSN   int64
	syncedLSN int64 // highest LSN the store has hardened (flush updates it)
	closed    bool
	stats     Stats
	observer  Observer
	policy    SyncPolicy

	// forceLat is a power-of-two latency histogram over force calls:
	// bucket i counts forces that completed in < 2^i microseconds.
	forceLat [32]int64
}

// New returns a log manager over store using immediate sync for
// forces. Use WithPolicy to install group commit or a Pipeline.
func New(store Store) *Log {
	return &Log{store: store, nextLSN: 1, policy: ImmediateSync{}}
}

// WithPolicy replaces the force policy and returns the log for
// chaining. It must be called before the log is used.
func (l *Log) WithPolicy(p SyncPolicy) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p != nil {
		l.policy = p
	}
	return l
}

// Store returns the stable storage the log writes to. A restart after
// Crash builds a fresh Log over the same store, which is exactly how
// durable records survive the loss of the volatile buffer.
func (l *Log) Store() Store {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store
}

// SetObserver installs fn, which is called (outside the log's lock)
// for every logical append or force.
func (l *Log) SetObserver(fn Observer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observer = fn
}

// Append writes rec without forcing. The record may be lost by a
// crash until a later force hardens the buffer.
func (l *Log) Append(rec Record) (int64, error) {
	rec.Forced = false
	return l.write(rec, false)
}

// Force writes rec and does not return until rec — and every earlier
// buffered record — is in stable storage (subject to the SyncPolicy,
// which may coalesce syncs across writers but never weakens the
// guarantee).
//
// The LSN-coverage contract every policy (and every Pipeline leader)
// upholds: a Force returning nil means a physical sync
// completed that began after rec entered the buffer, i.e.
// SyncedLSN() >= rec.LSN. Because flush always hardens the entire
// buffer in LSN order, one sync may cover many concurrent forces —
// that is the whole point of group commit — but no force may be
// answered by a sync that started before its record was buffered.
func (l *Log) Force(rec Record) (int64, error) {
	rec.Forced = true
	return l.write(rec, true)
}

// lsnForcer is the extended policy interface the Pipeline implements:
// it receives the force's LSN so completions can be matched to the
// sync that covered them (and already-covered requests short-circuit).
type lsnForcer interface {
	forceLSN(l *Log, lsn int64) error
}

// policyStopper is implemented by policies that keep forcers waiting
// (the Pipeline's followers); Close and Crash stop them so pending
// forcers unblock with ErrClosed.
type policyStopper interface {
	stop()
}

func (l *Log) write(rec Record, force bool) (int64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	l.buffered = append(l.buffered, rec)
	l.stats.Appends++
	if force {
		l.stats.Forces++
	}
	obs := l.observer
	policy := l.policy
	l.mu.Unlock()

	if obs != nil {
		obs(rec)
	}
	if force {
		start := time.Now()
		var err error
		if fp, ok := policy.(lsnForcer); ok {
			err = fp.forceLSN(l, rec.LSN)
		} else {
			err = policy.ForceSync(l)
		}
		l.observeForceLatency(time.Since(start))
		if err != nil {
			return rec.LSN, err
		}
	}
	return rec.LSN, nil
}

// flush moves the buffer into the store and issues one physical sync.
// It is the primitive SyncPolicies build on.
func (l *Log) flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushLocked()
}

// flushLocked is flush for a caller already holding flushMu.
func (l *Log) flushLocked() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Writers keep appending while this flush hands buf to the store,
	// so they get the other buffer; flushMu guarantees no second flush
	// holds either one meanwhile.
	buf := l.buffered
	l.buffered, l.spare = l.spare, nil
	store := l.store
	l.mu.Unlock()

	var last int64
	if len(buf) > 0 {
		last = buf[len(buf)-1].LSN
	}
	err := harden(store, buf)
	clear(buf) // the store has its copies; drop the payload references
	l.mu.Lock()
	if cap(buf) <= maxSpare {
		l.spare = buf[:0]
	}
	if err == nil {
		l.stats.Syncs++
		if last > l.syncedLSN {
			l.syncedLSN = last
		}
	}
	l.mu.Unlock()
	return err
}

// maxSpare bounds the buffer a flush keeps for reuse, so one burst of
// appends does not pin its high-water mark for the log's lifetime.
const maxSpare = 4096

// harden appends buf to store and issues one physical sync.
func harden(store Store, buf []Record) error {
	for _, rec := range buf {
		if err := store.Append(rec); err != nil {
			return fmt.Errorf("wal: append to store: %w", err)
		}
	}
	if err := store.Sync(); err != nil {
		return fmt.Errorf("wal: sync store: %w", err)
	}
	return nil
}

// Sync hardens all buffered records without writing a new one (an
// explicit checkpoint-style flush).
func (l *Log) Sync() error { return l.flush() }

// SyncedLSN reports the highest LSN known to be in stable storage.
func (l *Log) SyncedLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncedLSN
}

// Crash simulates a system failure: buffered (never-synced) records
// are lost and the log refuses further writes. The hardened records
// remain in the store for recovery. A policy that keeps forcers
// waiting is stopped; its pending forcers unblock with ErrClosed.
func (l *Log) Crash() {
	l.mu.Lock()
	l.stats.Lost += len(l.buffered)
	l.buffered = nil
	l.closed = true
	policy := l.policy
	l.mu.Unlock()
	if st, ok := policy.(policyStopper); ok {
		st.stop()
	}
}

// Close flushes the buffer and marks the log closed.
func (l *Log) Close() error {
	if err := l.flush(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	l.mu.Lock()
	l.closed = true
	policy := l.policy
	l.mu.Unlock()
	if st, ok := policy.(policyStopper); ok {
		st.stop()
	}
	return nil
}

// Records returns the hardened records, i.e. what a recovery scan
// after a crash would see.
func (l *Log) Records() ([]Record, error) {
	l.mu.Lock()
	store := l.store
	l.mu.Unlock()
	return store.Records()
}

// Stats returns a snapshot of the log's counters. Syncs is read from
// the log (not the store) so shared group committers attribute
// correctly.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// BufferedLen reports how many records would be lost by a crash right
// now. Tests use it to assert force semantics.
func (l *Log) BufferedLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buffered)
}

// observeForceLatency tallies one completed force into the histogram.
func (l *Log) observeForceLatency(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // < 2^idx microseconds
	if idx >= len(l.forceLat) {
		idx = len(l.forceLat) - 1
	}
	l.mu.Lock()
	l.forceLat[idx]++
	l.mu.Unlock()
}

// ForceLatencySummary condenses the force-latency distribution. The
// quantiles are bucket upper bounds (power-of-two microseconds), so
// they are conservative to within 2x — plenty for spotting a disk
// stall or a group-commit window that is too wide.
type ForceLatencySummary struct {
	Count         int64
	P50, P99, Max time.Duration
}

// ForceLatencyBuckets is the raw force-latency histogram: bucket i
// counts forces that completed in < 2^i microseconds. Counts only
// grow, so the difference of two snapshots is the histogram of the
// forces that completed between them — how admission backpressure
// turns the lifetime histogram into a windowed signal.
type ForceLatencyBuckets [32]int64

// ForceLatencyBuckets snapshots the raw histogram.
func (l *Log) ForceLatencyBuckets() ForceLatencyBuckets {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLat
}

// Delta returns the histogram of forces counted in b but not in prev.
// Negative differences (a fresh log reusing a stale snapshot) clamp
// to zero.
func (b ForceLatencyBuckets) Delta(prev ForceLatencyBuckets) ForceLatencyBuckets {
	var d ForceLatencyBuckets
	for i := range b {
		if n := b[i] - prev[i]; n > 0 {
			d[i] = n
		}
	}
	return d
}

// Summary condenses the histogram to count and quantiles.
func (b ForceLatencyBuckets) Summary() ForceLatencySummary {
	var s ForceLatencySummary
	for _, n := range b {
		s.Count += n
	}
	if s.Count == 0 {
		return s
	}
	upper := func(i int) time.Duration {
		return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
	}
	var cum int64
	p50n := (s.Count + 1) / 2
	p99n := s.Count - s.Count/100
	for i, n := range b {
		if n == 0 {
			continue
		}
		cum += n
		if s.P50 == 0 && cum >= p50n {
			s.P50 = upper(i)
		}
		if s.P99 == 0 && cum >= p99n {
			s.P99 = upper(i)
		}
		s.Max = upper(i)
	}
	return s
}

// ForceLatency summarizes the latency of every Force issued so far.
func (l *Log) ForceLatency() ForceLatencySummary {
	return l.ForceLatencyBuckets().Summary()
}
