package kvstore

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/wal"
)

// Recover rebuilds a store from the durable records of log, as a
// restart after a crash would: the latest snapshot is loaded, then
// committed transactions it does not already hold are replayed in
// log order, in-doubt transactions (prepared, no outcome record) are
// reinstated in prepared state with their locks re-acquired — so the
// data they touched stays unavailable until the commit protocol's
// recovery resolves them — and heuristically completed transactions
// are remembered so damage can still be detected and reported.
func Recover(name string, log *wal.Log, clk clock.Clock, opts ...Option) (*Store, error) {
	recs, err := log.Records()
	if err != nil {
		return nil, fmt.Errorf("kvstore recover %s: scan log: %w", name, err)
	}
	s := New(name, log, clk, opts...)

	type txRec struct {
		writes    []pendingWrite
		prepared  bool
		outcome   string // "", recCommitted, recAborted, recHeuristic
		heuCommit bool
		first     int // index of the transaction's first record
	}
	txs := make(map[string]*txRec)
	var order []string // first-appearance order of transactions
	// The latest snapshot and the mark that dates it: a transaction
	// with a record before the mark that the mark does not name as open
	// had finished when the state was copied, so the snapshot already
	// holds its effects.
	var snapshot []byte
	snapMark := -1
	var snapOpen []string
	lastMark := -1
	var lastOpen []byte

	for i, rec := range recs {
		if rec.Node != name {
			continue
		}
		switch rec.Kind {
		case recSnapshotMark:
			lastMark, lastOpen = i, rec.Data
			continue
		case recSnapshot:
			if lastMark < 0 {
				return nil, fmt.Errorf("kvstore recover %s: snapshot without a mark", name)
			}
			open, err := decodeStrings(lastOpen)
			if err != nil {
				return nil, fmt.Errorf("kvstore recover %s: decode snapshot mark: %w", name, err)
			}
			snapshot, snapMark, snapOpen = rec.Data, lastMark, open
			continue
		}
		tr, ok := txs[rec.Tx]
		if !ok {
			tr = &txRec{first: i}
			txs[rec.Tx] = tr
			order = append(order, rec.Tx)
		}
		switch rec.Kind {
		case recUpdate:
			var ws []pendingWrite
			if err := json.Unmarshal(rec.Data, &ws); err != nil {
				return nil, fmt.Errorf("kvstore recover %s: decode update set for %s: %w", name, rec.Tx, err)
			}
			tr.writes = append(tr.writes, ws...)
		case recPrepared:
			tr.prepared = true
		case recCommitted, recAborted:
			tr.outcome = rec.Kind
		case recHeuristic:
			tr.outcome = recHeuristic
			var p struct {
				Commit bool `json:"commit"`
			}
			if err := json.Unmarshal(rec.Data, &p); err != nil {
				return nil, fmt.Errorf("kvstore recover %s: decode heuristic record for %s: %w", name, rec.Tx, err)
			}
			tr.heuCommit = p.Commit
		}
	}
	inSnapshot := make(map[string]bool)
	for id, tr := range txs {
		if tr.first < snapMark {
			inSnapshot[id] = true
		}
	}
	for _, id := range snapOpen {
		delete(inSnapshot, id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if snapshot != nil {
		if err := decodeSnapshot(snapshot, s.data); err != nil {
			return nil, fmt.Errorf("kvstore recover %s: decode snapshot: %w", name, err)
		}
	}
	for _, id := range order {
		tr := txs[id]
		txid := core.ParseTxID(id)
		apply := tr.outcome == recCommitted || (tr.outcome == recHeuristic && tr.heuCommit)
		if apply && !inSnapshot[id] {
			for _, w := range tr.writes {
				if w.Delete {
					delete(s.data, w.Key)
				} else {
					s.data[w.Key] = w.Value
				}
			}
		}
		switch {
		case tr.outcome == recHeuristic:
			phase := phaseHeuristicAbort
			if tr.heuCommit {
				phase = phaseHeuristicCommit
			}
			s.txs[txid] = &txState{owner: id, phase: phase, writes: tr.writes}
		case tr.outcome == "" && tr.prepared:
			// In doubt: reinstate prepared state and relock the keys so
			// other work blocks until the outcome arrives.
			s.txs[txid] = &txState{owner: id, phase: phasePrepared, writes: tr.writes}
			for _, w := range tr.writes {
				if err := s.locks.Acquire(context.Background(), id, w.Key, lockmgr.Exclusive); err != nil {
					return nil, fmt.Errorf("kvstore recover %s: relock %q for %s: %w", name, w.Key, id, err)
				}
			}
		}
		// Committed/aborted transactions are complete: nothing kept.
	}
	return s, nil
}

// NewRecoveredLog is a convenience for tests: it builds a fresh Log
// over the durable records of a crashed store-log pair.
func NewRecoveredLog(old *wal.Log) (*wal.Log, error) {
	recs, err := old.Records()
	if err != nil {
		return nil, err
	}
	store := wal.NewMemStore()
	for _, r := range recs {
		if err := store.Append(r); err != nil {
			return nil, err
		}
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	return wal.New(store), nil
}
