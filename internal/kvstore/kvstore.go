// Package kvstore implements the transactional key-value resource
// manager (LRM) that stands in for the databases and file managers of
// the paper: strict two-phase locking via lockmgr, write-ahead
// logging via wal, a participant contract for the 2PC engine, support
// for heuristic completion while in doubt, crash/recovery, and the
// two LRM-side attributes the optimizations use — Reliable (§4 Vote
// Reliable) and shared-log mode (§4 Sharing the Log, under which the
// LRM never forces because the transaction manager's commit force
// hardens its records).
package kvstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/lockmgr"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// Log record kinds written by the store.
const (
	recUpdate    = "LRMUpdate"
	recPrepared  = "LRMPrepared"
	recCommitted = "LRMCommitted"
	recAborted   = "LRMAborted"
	recHeuristic = "LRMHeuristic"
)

// Errors returned by the store. ErrHeuristic aliases the engine's
// sentinel so the transaction manager recognizes heuristic conflicts
// across the Resource interface.
var (
	ErrNotFound  = errors.New("kvstore: key not found")
	ErrTxState   = errors.New("kvstore: operation invalid in this transaction state")
	ErrNoSuchTx  = errors.New("kvstore: unknown transaction")
	ErrHeuristic = protocol.ErrHeuristicConflict
)

type txPhase int

const (
	phaseActive txPhase = iota
	phasePrepared
	phaseCommitted
	phaseAborted
	phaseHeuristicCommit
	phaseHeuristicAbort
)

type pendingWrite struct {
	Key    string `json:"k"`
	Value  string `json:"v"`
	Delete bool   `json:"d,omitempty"`
}

type txState struct {
	owner  string    // tx rendered once: the lock owner and log record id
	lockBy time.Time // when its lock waits give up (WithLockWait); zero: never
	phase  txPhase
	writes []pendingWrite
	reads  int
}

// Option configures a Store.
type Option func(*Store)

// WithReliable marks the store as a reliable resource: one that takes
// heuristic decisions only in drastic circumstances, enabling the
// Vote-Reliable optimization upstream.
func WithReliable(on bool) Option { return func(s *Store) { s.reliable = on } }

// WithSharedLog puts the store in shared-log mode: its records ride
// the transaction manager's log and are never forced by the store
// itself.
func WithSharedLog(on bool) Option { return func(s *Store) { s.sharedLog = on } }

// WithOKToLeaveOut marks the store as one that stays suspended
// between requests, so its node may vote OK-to-leave-out.
func WithOKToLeaveOut(on bool) Option { return func(s *Store) { s.okToLeaveOut = on } }

// WithLockWait makes lock requests block, for live goroutine
// workloads: a transaction waits for its locks on this store at most d
// in all, counted from its first lock request here, after which the
// waiting request fails with an error matching
// context.DeadlineExceeded. The caller's context may end a wait
// sooner. Without it, or with d <= 0, a conflict fails at once with
// lockmgr.ErrConflict, as the deterministic simulator needs.
func WithLockWait(d time.Duration) Option { return func(s *Store) { s.lockWait = d } }

// WithReadOnlyVotes controls whether a transaction with no updates
// votes read-only (releasing locks at the vote, §4 Read Only) or runs
// the full protocol holding locks until the outcome — the behavior of
// basic 2PC without the optimization. Default is true (vote
// read-only).
func WithReadOnlyVotes(on bool) Option { return func(s *Store) { s.roVotes = on } }

// Store is a transactional in-memory key-value store with WAL-based
// durability. All methods are safe for concurrent use.
type Store struct {
	name         string
	log          *wal.Log
	locks        *lockmgr.Manager
	reliable     bool
	sharedLog    bool
	okToLeaveOut bool
	lockWait     time.Duration // > 0: blocking locks with this bound per transaction
	roVotes      bool

	mu   sync.Mutex
	data map[string]string
	txs  map[protocol.TxID]*txState

	// Self-compaction state (see checkpoint.go). logBytes counts the
	// payload bytes logged since the last snapshot mark, snapBytes is
	// that snapshot's size; compactMu serializes compactions and
	// guards snapBuf, the reused state copy.
	logBytes  atomic.Int64
	snapBytes atomic.Int64
	compactMu sync.Mutex
	snapBuf   []kv
}

// New returns an empty store named name, logging to log and locking
// through a manager driven by clk.
func New(name string, log *wal.Log, clk clock.Clock, opts ...Option) *Store {
	s := &Store{
		name:    name,
		log:     log,
		locks:   lockmgr.New(clk),
		data:    make(map[string]string),
		txs:     make(map[protocol.TxID]*txState),
		roVotes: true,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements protocol.Resource.
func (s *Store) Name() string { return s.name }

// Locks exposes the lock manager for hold-time accounting.
func (s *Store) Locks() *lockmgr.Manager { return s.locks }

// Log exposes the store's write-ahead log; tests read its records to
// check that compaction keeps it bounded.
func (s *Store) Log() *wal.Log { return s.log }

func (s *Store) tx(id protocol.TxID) *txState {
	st, ok := s.txs[id]
	if !ok {
		st = &txState{owner: id.String()}
		s.txs[id] = st
	}
	return st
}

// lock takes key in mode for tx. The transaction's entry is created
// first so its owner string is rendered once, not on every lock call,
// and so is its lock-wait deadline; a first lock that fails leaves no
// entry behind.
func (s *Store) lock(ctx context.Context, tx protocol.TxID, key string, mode lockmgr.Mode) error {
	s.mu.Lock()
	_, existed := s.txs[tx]
	st := s.tx(tx)
	if !existed && s.lockWait > 0 {
		st.lockBy = time.Now().Add(s.lockWait)
	}
	lockBy := st.lockBy
	s.mu.Unlock()
	var err error
	if s.lockWait > 0 {
		err = s.locks.AcquireUntil(ctx, st.owner, key, mode, lockBy)
	} else {
		err = s.locks.TryAcquire(st.owner, key, mode)
	}
	if err != nil && !existed {
		s.mu.Lock()
		if s.txs[tx] == st && st.phase == phaseActive && len(st.writes) == 0 && st.reads == 0 {
			delete(s.txs, tx)
		}
		s.mu.Unlock()
	}
	return err
}

// Get reads key under a shared lock within tx.
func (s *Store) Get(ctx context.Context, tx protocol.TxID, key string) (string, error) {
	if err := s.lock(ctx, tx, key, lockmgr.Shared); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tx(tx)
	if st.phase != phaseActive {
		return "", fmt.Errorf("%w: read in phase %d", ErrTxState, st.phase)
	}
	st.reads++
	// Read-your-writes: the latest pending write wins.
	for i := len(st.writes) - 1; i >= 0; i-- {
		if st.writes[i].Key == key {
			if st.writes[i].Delete {
				return "", fmt.Errorf("%w: %q", ErrNotFound, key)
			}
			return st.writes[i].Value, nil
		}
	}
	v, ok := s.data[key]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// Put buffers a write of key=value under an exclusive lock within tx.
// The write is applied at commit.
func (s *Store) Put(ctx context.Context, tx protocol.TxID, key, value string) error {
	if err := s.lock(ctx, tx, key, lockmgr.Exclusive); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tx(tx)
	if st.phase != phaseActive {
		return fmt.Errorf("%w: write in phase %d", ErrTxState, st.phase)
	}
	st.writes = append(st.writes, pendingWrite{Key: key, Value: value})
	return nil
}

// Delete buffers a deletion of key under an exclusive lock within tx.
func (s *Store) Delete(ctx context.Context, tx protocol.TxID, key string) error {
	if err := s.lock(ctx, tx, key, lockmgr.Exclusive); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tx(tx)
	if st.phase != phaseActive {
		return fmt.Errorf("%w: delete in phase %d", ErrTxState, st.phase)
	}
	st.writes = append(st.writes, pendingWrite{Key: key, Delete: true})
	return nil
}

// Prepare implements protocol.Resource. A transaction with no writes
// votes read-only and releases its locks immediately (§4 Read Only);
// otherwise the update set is logged and the prepared record forced
// (non-forced in shared-log mode), after which the store guarantees
// it can commit or abort across crashes.
func (s *Store) Prepare(tx protocol.TxID) (protocol.PrepareResult, error) {
	s.mu.Lock()
	st := s.tx(tx)
	if st.phase != phaseActive {
		s.mu.Unlock()
		return protocol.PrepareResult{}, fmt.Errorf("%w: prepare in phase %d", ErrTxState, st.phase)
	}
	if len(st.writes) == 0 && s.roVotes {
		delete(s.txs, tx)
		s.mu.Unlock()
		s.locks.ReleaseAll(st.owner)
		return protocol.PrepareResult{
			Vote:         protocol.VoteReadOnly,
			Reliable:     s.reliable,
			OKToLeaveOut: s.okToLeaveOut,
		}, nil
	}
	writes, owner := st.writes, st.owner
	st.phase = phasePrepared
	s.mu.Unlock()

	payload, err := json.Marshal(writes)
	if err != nil {
		return protocol.PrepareResult{}, fmt.Errorf("kvstore: encode update set: %w", err)
	}
	if err := s.writeLog(owner, recUpdate, payload, false); err != nil {
		return protocol.PrepareResult{}, err
	}
	// In shared-log mode the prepared record is not forced: the TM's
	// commit force will harden it, and if the system fails first the
	// missing record simply aborts the transaction (§4 Sharing the Log).
	if err := s.writeLog(owner, recPrepared, nil, !s.sharedLog); err != nil {
		return protocol.PrepareResult{}, err
	}
	return protocol.PrepareResult{
		Vote:         protocol.VoteYes,
		Reliable:     s.reliable,
		OKToLeaveOut: s.okToLeaveOut,
	}, nil
}

// writeLog writes one record for the transaction rendered as tx.
func (s *Store) writeLog(tx string, kind string, data []byte, force bool) error {
	rec := wal.Record{Tx: tx, Node: s.name, Kind: kind, Data: data}
	var err error
	if force {
		_, err = s.log.Force(rec)
	} else {
		_, err = s.log.Append(rec)
	}
	if err != nil {
		return fmt.Errorf("kvstore %s: log %s: %w", s.name, kind, err)
	}
	s.logBytes.Add(int64(len(tx) + len(kind) + len(data)))
	return nil
}

// Commit implements protocol.Resource: applies buffered writes, logs the
// committed record (forced unless shared-log), and releases locks.
// Committing an unknown transaction is a no-op so recovery can
// re-deliver outcomes safely.
func (s *Store) Commit(tx protocol.TxID) error { return s.finish(tx, true, false) }

// Abort implements protocol.Resource: discards buffered writes and
// releases locks. Unknown transactions are a no-op (presumed abort
// re-delivery).
func (s *Store) Abort(tx protocol.TxID) error { return s.finish(tx, false, false) }

func (s *Store) finish(tx protocol.TxID, commit, heuristic bool) error {
	s.mu.Lock()
	st, ok := s.txs[tx]
	if !ok {
		s.mu.Unlock()
		s.locks.ReleaseAll(tx.String()) // read-only txs may still hold nothing; harmless
		return nil
	}
	switch st.phase {
	case phaseHeuristicCommit, phaseHeuristicAbort:
		// The real outcome arrived after a heuristic decision; the
		// caller (TM) detects damage via HeuristicTaken.
		s.mu.Unlock()
		return ErrHeuristic
	case phaseCommitted, phaseAborted:
		s.mu.Unlock()
		return nil // idempotent re-delivery
	}
	if commit {
		for _, w := range st.writes {
			if w.Delete {
				delete(s.data, w.Key)
			} else {
				s.data[w.Key] = w.Value
			}
		}
		if heuristic {
			st.phase = phaseHeuristicCommit
		} else {
			st.phase = phaseCommitted
		}
	} else {
		if heuristic {
			st.phase = phaseHeuristicAbort
		} else {
			st.phase = phaseAborted
		}
	}
	hadWrites, owner := len(st.writes) > 0, st.owner
	if !heuristic {
		delete(s.txs, tx)
	}
	s.mu.Unlock()

	if hadWrites {
		kind := recAborted
		force := false
		if commit {
			kind = recCommitted
			force = !s.sharedLog
		}
		if heuristic {
			kind = recHeuristic
			force = true // heuristic decisions must be remembered
		}
		if err := s.writeLog(owner, kind, outcomePayload(commit), force); err != nil {
			return err
		}
	}
	s.locks.ReleaseAll(owner)
	if hadWrites {
		s.maybeCompact()
	}
	return nil
}

// RedoPayload implements the live runtime's RedoCarrier extension for
// the 1PC fast path: the prepared transaction's buffered write-set,
// in the same encoding as the LRMUpdate record. Nil for unknown,
// unprepared, or write-free transactions — a nil payload simply means
// there is nothing the coordinator's decision record must carry.
func (s *Store) RedoPayload(tx protocol.TxID) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	if !ok || st.phase != phasePrepared || len(st.writes) == 0 {
		return nil
	}
	b, err := json.Marshal(st.writes)
	if err != nil {
		return nil
	}
	return b
}

// ApplyRedo implements the live runtime's RedoApplier extension: it
// installs a redo payload delivered alongside a committed outcome for
// a transaction this store has no memory of (the process lost its
// prepared write-set in a crash after a logless 1PC vote). A
// transaction the store still remembers is left to the normal Commit
// path — the redelivery is a duplicate there.
func (s *Store) ApplyRedo(tx protocol.TxID, payload []byte) error {
	var writes []pendingWrite
	if err := json.Unmarshal(payload, &writes); err != nil {
		return fmt.Errorf("kvstore %s: decode redo payload: %w", s.name, err)
	}
	s.mu.Lock()
	if _, known := s.txs[tx]; known {
		s.mu.Unlock()
		return nil
	}
	for _, w := range writes {
		if w.Delete {
			delete(s.data, w.Key)
		} else {
			s.data[w.Key] = w.Value
		}
	}
	s.mu.Unlock()
	return s.writeLog(tx.String(), recCommitted, outcomePayload(true), !s.sharedLog)
}

func outcomePayload(commit bool) []byte {
	if commit {
		return []byte(`{"commit":true}`)
	}
	return []byte(`{"commit":false}`)
}

// HeuristicDecide implements protocol.HeuristicCapable: unilaterally
// completes a prepared transaction. The store logs the decision
// (forced) and keeps the transaction's entry so a later outcome
// delivery detects disagreement.
func (s *Store) HeuristicDecide(tx protocol.TxID, commit bool) error {
	s.mu.Lock()
	st, ok := s.txs[tx]
	if !ok || st.phase != phasePrepared {
		s.mu.Unlock()
		return fmt.Errorf("%w: heuristic decision requires prepared state", ErrTxState)
	}
	s.mu.Unlock()
	return s.finish(tx, commit, true)
}

// HeuristicTaken implements protocol.HeuristicCapable.
func (s *Store) HeuristicTaken(tx protocol.TxID) (taken, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	if !ok {
		return false, false
	}
	switch st.phase {
	case phaseHeuristicCommit:
		return true, true
	case phaseHeuristicAbort:
		return true, false
	}
	return false, false
}

// Forget drops the record of a heuristically completed transaction
// after its damage has been reported upstream.
func (s *Store) Forget(tx protocol.TxID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	if ok && (st.phase == phaseHeuristicCommit || st.phase == phaseHeuristicAbort) {
		delete(s.txs, tx)
	}
}

// ReadCommitted returns the committed value of key outside any
// transaction (no locks); tests use it to inspect state.
func (s *Store) ReadCommitted(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Keys returns the sorted committed key set.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// InDoubt returns transactions that are prepared but not completed —
// after a crash these are the ones recovery must resolve.
func (s *Store) InDoubt() []protocol.TxID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []protocol.TxID
	for id, st := range s.txs {
		if st.phase == phasePrepared {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Snapshot returns a copy of the committed key-value state.
func (s *Store) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// Len returns the number of committed keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
