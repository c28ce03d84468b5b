package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Snapshot record kinds. A compaction writes a mark, then a snapshot:
//
//   - recSnapshotMark is appended under the store's mutex at the
//     instant the committed state is copied. Its payload names the
//     transactions open at that instant. Every transaction that wrote
//     a record before the mark and is not named in it had already
//     finished, so its effects are inside the snapshot; everything
//     after the mark is newer than the snapshot.
//   - recSnapshot carries the copied state. It is forced before any
//     record is truncated, so a crash between the two leaves a log
//     that still recovers (the truncation simply did not happen).
const (
	recSnapshotMark = "LRMSnapshotMark"
	recSnapshot     = "LRMSnapshot"
)

// minCompactBytes is the log size below which a store does not
// compact itself. A compaction costs one forced write whatever the
// snapshot's size, so a store with a handful of keys waits until its
// log amounts to something before paying it.
const minCompactBytes = 64 << 10

// kv is one committed key-value pair copied out for a snapshot.
type kv struct{ k, v string }

// Checkpoint writes a snapshot of the committed state to the log
// (forced) and truncates everything older, except records belonging
// to transactions that are still open (in doubt or heuristically
// completed) — their update sets are still needed to resolve them.
// It returns the number of log records dropped.
//
// A store that owns its log (not shared-log mode) also checkpoints by
// itself, whenever the bytes it has logged since the last snapshot
// exceed the snapshot's own size: on a goroutine of its own, one at a
// time, so no commit waits for the snapshot. Checkpoint runs one now,
// on the caller's goroutine, after any that is running.
func (s *Store) Checkpoint() (dropped int, err error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compactLocked()
}

// compactDue reports whether the log has grown past the trigger: more
// bytes logged since the last snapshot than the snapshot holds. Each
// compaction then costs at most what the log traffic since the
// previous one cost, so the log stays within about twice the snapshot
// plus the open transactions' records. Shared-log stores never
// compact: the log is the transaction manager's, and the store does
// not force it (§4 Sharing the Log).
func (s *Store) compactDue() bool {
	n := s.logBytes.Load()
	return !s.sharedLog && n > s.snapBytes.Load() && n > minCompactBytes
}

// maybeCompact starts a checkpoint on a goroutine of its own when one
// is due and none is running; the running one covers this growth. The
// goroutine ends with its checkpoint.
func (s *Store) maybeCompact() {
	if !s.compactDue() || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.compactMu.Lock()
		defer s.compactMu.Unlock()
		// A failure (a crashed or closed log) leaves the log whole; the
		// next trigger retries. A Checkpoint that ran meanwhile may
		// have made this one unneeded.
		if s.compactDue() {
			_, _ = s.compactLocked()
		}
	}()
}

// compactLocked is one checkpoint. Caller holds compactMu. Once the
// truncate has dropped the previous snapshot record, nothing in the
// log references that snapshot's encoding any more (a MemStore keeps
// a record's Data as given), so its buffer encodes the next one.
func (s *Store) compactLocked() (int, error) {
	mark, open, pairs, err := s.markSnapshot()
	if err != nil {
		return 0, err
	}
	data, err := s.writeSnapshot(pairs)
	if err != nil {
		return 0, err
	}
	dropped, err := s.truncateBefore(mark, open)
	if err != nil {
		// Both snapshot records may still be in the log.
		s.snapData = data
		return 0, err
	}
	s.snapSpare, s.snapData = s.snapData[:0], data
	return dropped, nil
}

// markSnapshot copies the committed state and the open-transaction set
// under the store's mutex and appends the mark that dates the copy.
// The copy reuses the previous compaction's buffer; encoding happens
// outside the lock.
func (s *Store) markSnapshot() (mark int64, open map[string]bool, pairs []kv, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pairs = s.snapBuf[:0]
	for k, v := range s.data {
		pairs = append(pairs, kv{k, v})
	}
	open = make(map[string]bool, len(s.txs))
	names := wal.AppendUvarint(nil, uint64(len(s.txs)))
	for _, st := range s.txs {
		open[st.owner] = true
		names = wal.AppendLenString(names, st.owner)
	}
	mark, err = s.log.Append(wal.Record{Node: s.name, Kind: recSnapshotMark, Data: names})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("kvstore checkpoint: write mark: %w", err)
	}
	s.logBytes.Store(0)
	return mark, open, pairs, nil
}

// writeSnapshot encodes pairs and forces the snapshot record, then
// hands the emptied pair buffer back for the next compaction. The
// encoding goes into the spare buffer when there is one (growing it
// only if the state outgrew it), or else into one sized for the worst
// case, so a spare has room for the state's later growth. It returns
// the encoding, which the record references.
func (s *Store) writeSnapshot(pairs []kv) ([]byte, error) {
	data := s.snapSpare
	if data == nil {
		size := binary.MaxVarintLen64
		for _, p := range pairs {
			size += 2*binary.MaxVarintLen64 + len(p.k) + len(p.v)
		}
		data = make([]byte, 0, size)
	}
	s.snapSpare = nil // the record references it from here on, even if the force fails
	data = wal.AppendUvarint(data, uint64(len(pairs)))
	for _, p := range pairs {
		data = wal.AppendLenString(wal.AppendLenString(data, p.k), p.v)
	}
	clear(pairs)
	s.snapBuf = pairs[:0]
	if _, err := s.log.Force(wal.Record{Node: s.name, Kind: recSnapshot, Data: data}); err != nil {
		return nil, fmt.Errorf("kvstore checkpoint: write snapshot: %w", err)
	}
	s.snapBytes.Store(int64(len(data)))
	return data, nil
}

// truncateBefore drops this store's records that precede the mark,
// except those of transactions open when it was taken. Records after
// the mark (the snapshot among them) and other components' records
// (shared logs) stay.
func (s *Store) truncateBefore(mark int64, open map[string]bool) (int, error) {
	past := false
	_, dropped, err := s.log.Checkpoint(func(r wal.Record) bool {
		if past || r.Node != s.name {
			return true
		}
		if r.LSN == mark && r.Kind == recSnapshotMark {
			past = true
			return true
		}
		return open[r.Tx]
	})
	if err != nil {
		return 0, fmt.Errorf("kvstore checkpoint: truncate: %w", err)
	}
	return dropped, nil
}

var errSnapshotCorrupt = errors.New("kvstore: corrupt snapshot record")

// decodeStrings reads a mark's open-transaction list.
func decodeStrings(b []byte) ([]string, error) {
	n, b, ok := wal.CutUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, errSnapshotCorrupt
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var f []byte
		if f, b, ok = wal.CutLenBytes(b); !ok {
			return nil, errSnapshotCorrupt
		}
		out = append(out, string(f))
	}
	if len(b) != 0 {
		return nil, errSnapshotCorrupt
	}
	return out, nil
}

// decodeSnapshot reads a snapshot record into data.
func decodeSnapshot(b []byte, data map[string]string) error {
	n, b, ok := wal.CutUvarint(b)
	if !ok || n > uint64(len(b)) {
		return errSnapshotCorrupt
	}
	for i := uint64(0); i < n; i++ {
		var k, v []byte
		if k, b, ok = wal.CutLenBytes(b); !ok {
			return errSnapshotCorrupt
		}
		if v, b, ok = wal.CutLenBytes(b); !ok {
			return errSnapshotCorrupt
		}
		data[string(k)] = string(v)
	}
	if len(b) != 0 {
		return errSnapshotCorrupt
	}
	return nil
}
