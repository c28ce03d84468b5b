package live

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/protocol"
)

// txShard is one hash bucket of a participant's per-transaction state:
// the live table and the decided table for the transactions hashing
// here, under one mutex. Keeping both in the same shard preserves the
// old single-mutex atomicity per transaction (routing decisions look
// at "decided?" and "live entry?" in one critical section) while
// letting independent transactions proceed on different shards without
// contention.
//
// The decided table forgets by presumption (DESIGN §17). An entry is
// pinned while its transaction may still be asked for the outcome and
// the presumption would answer wrongly; every other entry ages through
// two generations and is dropped with its whole generation once the
// retransmission horizon has passed — Go maps do not shrink on delete,
// so dropping a map is the only way to give the memory back.
type txShard struct {
	mu     sync.Mutex
	txs    map[string]*txState
	pinned map[string]pin
	// resends holds each resent pin's schedule (awaitAcks), out of the
	// pin, so the decided-table lookups on a drainer's deep stack copy
	// no more than they did.
	resends map[string]resendAt
	young   map[string]decision
	old     map[string]decision
	opened  time.Duration // scheduler time the young generation opened
}

// pin is a pinned decided-table entry. waiting, when non-nil, lists the
// subordinates whose acknowledgments release the pin (awaitAcks); each
// rotation resends them the outcome (reannounce), unless the resender
// does. redo is a 1PC decision record's payload, whose per-voter redo
// rides on the resent commit. ledger marks a pin whose release also
// closes this node's cost-ledger entry.
type pin struct {
	d       decision
	waiting []string
	redo    []byte
	ledger  bool
}

// resendAt is when the resender next sends a pinned commit's outcome
// again: at due, walking bo, until deadline.
type resendAt struct {
	bo            clock.Backoff
	due, deadline time.Duration
}

// decidedLocked returns tx's decided-table entry. Caller holds sh.mu.
func (sh *txShard) decidedLocked(tx string) (decision, bool) {
	if pe, ok := sh.pinned[tx]; ok {
		return pe.d, true
	}
	if d, ok := sh.young[tx]; ok {
		return d, true
	}
	d, ok := sh.old[tx]
	return d, ok
}

// retransmitHorizon is how long this node, as coordinator, may resend
// a Prepare or an outcome after first sending it: its vote or ack
// deadline. Its Prepares and outcomes announce it.
func (p *Participant) retransmitHorizon() time.Duration {
	return max(p.voteTimeout, p.ackTimeout)
}

// notePeerHorizon raises the longest retransmission horizon a peer
// has announced to h.
func (p *Participant) notePeerHorizon(h time.Duration) {
	for {
		cur := p.peerHorizon.Load()
		if int64(h) <= cur || p.peerHorizon.CompareAndSwap(cur, int64(h)) {
			return
		}
	}
}

// horizon is the least time an unpinned decided-table entry is kept.
// Every duplicate the entry exists to answer is a coordinator's
// retransmission, and a coordinator stops resending at its own
// deadline — which may be longer than this node's, since timeouts are
// set per node. So the horizon covers the longest retransmission
// horizon heard of, this node's own included, plus a quarter as much
// again as a delivery margin (500 ms on the default 2 s timeouts): the
// last retransmission, sent at the deadline, still finds the entry
// when it arrives.
func (p *Participant) horizon() time.Duration {
	h := max(p.retransmitHorizon(), time.Duration(p.peerHorizon.Load()))
	return h + h/4
}

// ageLocked writes tx's entry into the young generation, first
// rotating the generations when the young one has been open for a
// horizon: the old generation is dropped whole and the young one takes
// its place. Rotation waits while a checkpoint scans the log, so no
// transaction whose earlier records the scan kept is forgotten before
// it reaches the later ones. It reports whether it rotated; the caller
// then runs reannounce once it has released sh.mu. Caller holds sh.mu.
func (p *Participant) ageLocked(sh *txShard, tx string, d decision) (rotated bool) {
	if now := p.sched.Now(); now-sh.opened >= p.horizon() && !p.scanning.Load() {
		sh.old = sh.young
		sh.young = make(map[string]decision, len(sh.old))
		sh.opened = now
		rotated = true
	}
	delete(sh.old, tx)
	sh.young[tx] = d
	return rotated
}

// reannounce resends the outcome of every pinned entry in sh that
// waits on acknowledgments the resender does not resend. A
// subordinate that was down when the outcome went out, or whose ack
// was lost, may never ask; the resent outcome reaches it once it is
// back, and its ack — a re-ack, or the ack of a subordinate that never
// prepared — releases the pin. It runs on rotation, so at most once a
// horizon per shard, and only while the shard sees inserts.
func (p *Participant) reannounce(sh *txShard) {
	var out []resend
	sh.mu.Lock()
	for tx, pe := range sh.pinned {
		if _, ok := sh.resends[tx]; ok {
			continue
		}
		for _, s := range pe.waiting {
			out = append(out, resend{s, outcomeMsg(tx, pe.d.committed(), pe.redo, s)})
		}
	}
	sh.mu.Unlock()
	for _, r := range out {
		_ = p.sendExtra(r.to, r.m)
		p.countRetry()
	}
}

// resend is an outcome to send again once the shard's mutex is released.
type resend struct {
	to string
	m  protocol.Message
}

// outcomeMsg is the outcome message for subordinate sub of tx. A 1PC
// commit carries sub's redo from the decision record's payload, so a
// voter that lost its logless prepare completes from it.
func outcomeMsg(tx string, committed bool, redo []byte, sub string) protocol.Message {
	m := protocol.OutcomeMessage(tx, committed)
	if committed && redo != nil {
		if meta, err := protocol.DecodeOnePhaseMeta(redo); err == nil {
			if i := slices.Index(meta.Subs, sub); i >= 0 && i < len(meta.Redos) {
				m.Payload = meta.Redos[i]
			}
		}
	}
	return m
}

// decision is one decided-table entry, packed into a byte: whether
// the transaction committed and, when this node was one of its
// subordinates, the presumption its Prepare announced. A subordinate's
// table entry retires once the outcome is applied, so the decided
// table is all that is left to answer a duplicate outcome with — and
// whether that duplicate is owed an ack depends on the variant.
type decision uint8

// coordDecision is the entry for a transaction this node coordinated
// (or learned from its log): just the outcome.
func coordDecision(committed bool) decision {
	if committed {
		return 1
	}
	return 0
}

// subDecision is the entry for a transaction this node subordinated
// under variant v.
func subDecision(committed bool, v protocol.Variant) decision {
	return coordDecision(committed) | decision(v+1)<<1
}

func (d decision) committed() bool { return d&1 != 0 }

// subVariant returns the variant this node applied the outcome under
// as a subordinate; ok is false for a coordinator's entry.
func (d decision) subVariant() (v protocol.Variant, ok bool) {
	if d>>1 == 0 {
		return 0, false
	}
	return protocol.Variant(d>>1 - 1), true
}

// defaultTxShards is the GOMAXPROCS-derived shard count used when
// WithShards is not given.
func defaultTxShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 128 {
		n = 128
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newTxShards(n int) []*txShard {
	if n < 1 {
		n = defaultTxShards()
	}
	p := 1
	for p < n {
		p <<= 1
	}
	shards := make([]*txShard, p)
	for i := range shards {
		shards[i] = &txShard{
			txs:     make(map[string]*txState),
			pinned:  make(map[string]pin),
			resends: make(map[string]resendAt),
			young:   make(map[string]decision),
		}
	}
	return shards
}

// shardFor maps a transaction id to its shard by fnv-1a hash.
func (p *Participant) shardFor(tx string) *txShard {
	h := fnv.New32a()
	h.Write([]byte(tx))
	return p.shards[h.Sum32()&p.shardMask]
}

// stateLocked returns the shard's entry for tx, creating it if needed.
// Caller holds sh.mu.
func (sh *txShard) stateLocked(tx string) *txState {
	st, ok := sh.txs[tx]
	if !ok {
		st = &txState{id: tx, sh: sh}
		sh.txs[tx] = st
	}
	return st
}

// liveState returns tx's table entry, creating one unless tx is
// decided here and its entry has retired (nil then): a decided
// transaction is never re-run on a blank entry.
func (p *Participant) liveState(tx string) *txState {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, decided := sh.decidedLocked(tx); decided && sh.txs[tx] == nil {
		return nil
	}
	return sh.stateLocked(tx)
}

// bundlePending reports whether st is a committed transaction whose
// ballot-0 acceptor bundle here is still incomplete: the decision
// raced ahead of the slowest accept.
func (st *txState) bundlePending() bool {
	return st.sub.Done && st.sub.Committed && st.pax != nil && st.pax.Holds() && !st.pax.Bundled()
}

// retire drops a finished subordinate's table entry; the decided
// table answers for it from here on. Coordinator entries retire in
// unregisterCoord. A committed transaction whose ballot-0 acceptor
// bundle is still incomplete keeps its entry, so the last accept can
// still force the bundle (handlePaxosAcceptor retires it then).
func (p *Participant) retire(st *txState) {
	if st.sub.Done && !st.isCoord && !st.bundlePending() {
		p.drop(st)
	}
}

// drop removes st from the table, on its consumer. Input still queued
// for it is answered from the decided table (dispatch).
func (p *Participant) drop(st *txState) {
	st.gone = true
	st.sh.mu.Lock()
	if st.sh.txs[st.id] == st {
		delete(st.sh.txs, st.id)
	}
	st.sh.mu.Unlock()
}

// forEachDecided calls fn for every decided transaction across all
// shards — pinned and aging entries alike.
// Recovery, inquiry handling, and the chaos harness see a single
// logical table through this and Decided — the sharding and the
// generations are invisible above this file.
//
// fn runs under the shard's mutex: keep it fast and never call back
// into the participant's state helpers from it.
func (p *Participant) forEachDecided(fn func(tx string, committed bool)) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for tx, pe := range sh.pinned {
			fn(tx, pe.d.committed())
		}
		for _, gen := range [...]map[string]decision{sh.young, sh.old} {
			for tx, d := range gen {
				fn(tx, d.committed())
			}
		}
		sh.mu.Unlock()
	}
}

// forEachState calls fn for every live table entry across all shards,
// under the same contract as forEachDecided.
func (p *Participant) forEachState(fn func(tx string, st *txState)) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for tx, st := range sh.txs {
			fn(tx, st)
		}
		sh.mu.Unlock()
	}
}

// DecidedTableSize reports how many transactions the decided table
// remembers: the pinned entries plus both aging generations. Under
// steady load it levels off at about one to two horizons' worth of
// decisions plus the pinned ones.
func (p *Participant) DecidedTableSize() int {
	return p.sumShards(func(sh *txShard) int { return len(sh.pinned) + len(sh.young) + len(sh.old) })
}

// PinnedDecisions reports how many decided-table entries are pinned:
// transactions whose acknowledgments are outstanding, aborts a
// non-abort presumption would answer wrongly, and Paxos acceptor
// state.
func (p *Participant) PinnedDecisions() int {
	return p.sumShards(func(sh *txShard) int { return len(sh.pinned) })
}

// StateTableSize reports the number of live table entries across all
// shards: transactions still in flight here, plus any committed
// acceptor state waiting for its bundle. Finished transactions retire
// from the table, so it returns to 0 once the node is idle; soak tests
// use it to assert the table drains.
func (p *Participant) StateTableSize() int {
	return p.sumShards(func(sh *txShard) int { return len(sh.txs) })
}

// sumShards adds up count over every shard, each under its mutex.
func (p *Participant) sumShards(count func(sh *txShard) int) int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += count(sh)
		sh.mu.Unlock()
	}
	return n
}
