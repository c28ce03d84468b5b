package live

import (
	"repro/internal/protocol"
	"repro/internal/wal"
)

// checkpointFloor is the least log growth that triggers a checkpoint,
// as the store reports it (wal.Truncater), so a participant whose kept
// set is tiny does not rewrite its log every few records. Zero means
// the store cannot be checkpointed.
func checkpointFloor(s wal.Store) int64 {
	if tr, ok := s.(wal.Truncater); ok {
		return tr.CheckpointFloor()
	}
	return 0
}

// endCoord finishes this node's part as coordinator of tx once every
// acknowledgment the outcome is owed is in (or none is owed): the
// non-forced End record is written, the decided-table entry starts
// aging, and — when ledger is set — the cost-ledger entry closes. End
// therefore means "all acks in": a replayed decision without one is
// pinned again, waiting on the acks its record names.
func (p *Participant) endCoord(tx string, ledger bool) {
	if err := p.lazy(wal.Record{Tx: tx, Node: p.name, Kind: protocol.RecEnd}); err != nil {
		return
	}
	p.releasePin(tx)
	if ledger && p.met != nil {
		p.met.CostNodeDone(tx, p.name)
	}
}

// releasePin moves tx's pinned entry into the young generation.
func (p *Participant) releasePin(tx string) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	rotated := false
	if pe, ok := sh.pinned[tx]; ok {
		delete(sh.pinned, tx)
		rotated = p.ageLocked(sh, tx, pe.d)
	}
	sh.mu.Unlock()
	if rotated {
		p.reannounce(sh)
	}
}

// awaitAcks registers the acknowledgments a coordinator is owed for
// tx, missing (the caller's own copy), with its pinned decided-table
// entry, before the outcome leaves: each strikes its sender (route),
// and the last one writes End and releases the pin. redo is a 1PC
// decision record's payload (pin). The resender (resendLoop) sends the
// outcome again on the retry backoff until the ack deadline.
func (p *Participant) awaitAcks(tx string, missing []string, redo []byte, ledger bool) {
	now := p.sched.Now()
	sh := p.shardFor(tx)
	sh.mu.Lock()
	pe, ok := sh.pinned[tx]
	if !ok {
		sh.mu.Unlock()
		return
	}
	pe.waiting, pe.redo, pe.ledger = missing, redo, ledger
	sh.pinned[tx] = pe
	if _, ok := sh.resends[tx]; !ok {
		p.owing.Add(1)
	}
	r := resendAt{bo: p.retry.Backoff(p.retrySeedFor(tx, "/acks")), deadline: now + p.ackTimeout}
	r.due = nextDue(&r.bo, now, r.deadline)
	sh.resends[tx] = r
	sh.mu.Unlock()
	if p.resending.CompareAndSwap(false, true) && !p.background(p.resendLoop) {
		p.resending.Store(false)
	}
}

// Remembers reports whether tx is live here or in the decided table: a
// transaction name this node must not take up as a new transaction. A
// read-only voter keeps nothing, so a name this node only voted
// read-only on is not remembered.
func (p *Participant) Remembers(tx string) bool {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	_, live := sh.txs[tx]
	if !live {
		_, live = sh.decidedLocked(tx)
	}
	sh.mu.Unlock()
	return live
}

// recordBytes approximates a record's footprint in the log: its fields
// plus framing.
func recordBytes(rec wal.Record) int64 {
	return int64(len(rec.Tx) + len(rec.Node) + len(rec.Kind) + len(rec.Data) + 16)
}

// noteLogged counts a record this participant wrote and, once the
// restart replay is done, starts a checkpoint in the background when
// the bytes logged since the last one exceed what that one kept (and
// the floor) — the kvstore's rule (DESIGN §17), so each checkpoint
// costs no more than the log traffic since the previous one.
func (p *Participant) noteLogged(rec wal.Record) {
	n := p.logged.Add(recordBytes(rec))
	floor := p.ckptFloor.Load()
	if floor == 0 || n <= max(p.keptBytes.Load(), floor) {
		return
	}
	if !p.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	if !p.background(func() {
		defer p.ckptBusy.Store(false)
		_, _, _ = p.Checkpoint()
	}) {
		p.ckptBusy.Store(false)
	}
}

// Checkpoint truncates this participant's protocol log to the records
// of the transactions it still remembers — live, pinned, or aging in
// the decided table — plus every record another component wrote to a
// shared log. On a SegmentStore the rewrite runs beside the protocol's
// forces and the freed segments are recycled; a restart then replays
// only what is still remembered. The participant checkpoints by
// itself as its log grows; Checkpoint runs one now. It returns the
// records kept and dropped.
//
// The checkpoint's two crash points ("checkpoint:before-swap" and
// "checkpoint:after-swap") are failpoint sites (WithFailpoint).
func (p *Participant) Checkpoint() (kept, dropped int, err error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.Crashed() {
		return 0, 0, ErrCrashed
	}
	// A transaction must not be forgotten while the scan runs: its
	// earlier records could be kept and its later ones dropped.
	p.scanning.Store(true)
	defer p.scanning.Store(false)
	p.logged.Store(0)
	var keptBytes int64
	kept, dropped, err = p.log.CheckpointAt(func(r wal.Record) bool {
		// Once crashed, this process image's tables no longer speak for
		// the log: a successor may already be writing to it.
		if r.Node == p.name && r.Tx != "" && !p.Crashed() && !p.Remembers(r.Tx) {
			return false
		}
		keptBytes += recordBytes(r)
		return true
	}, func(stage string) bool {
		return p.fp != nil && p.hitFailpoint("checkpoint:"+stage)
	})
	if p.Crashed() {
		return kept, dropped, ErrCrashed
	}
	if err == nil {
		p.keptBytes.Store(keptBytes)
	}
	return kept, dropped, err
}
