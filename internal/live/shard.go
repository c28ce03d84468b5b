package live

import (
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/protocol"
)

// txShard is one hash bucket of a participant's per-transaction state:
// the live table and the decided map for the transactions hashing
// here, under one mutex. Keeping both maps in the same shard preserves
// the old single-mutex atomicity per transaction (routing decisions
// look at "decided?" and "live entry?" in one critical section) while
// letting independent transactions proceed on different shards without
// contention.
type txShard struct {
	mu      sync.Mutex
	txs     map[string]*txState
	decided map[string]decision // for inquiries and duplicates
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
// under presumption pr.
func subDecision(committed bool, pr protocol.Presumption) decision {
	return coordDecision(committed) | decision(pr+1)<<1
}

func (d decision) committed() bool { return d&1 != 0 }

// subVariant returns the variant this node applied the outcome under
// as a subordinate; ok is false for a coordinator's entry.
func (d decision) subVariant() (v core.Variant, ok bool) {
	if d>>1 == 0 {
		return 0, false
	}
	return variantOf(protocol.Presumption(d>>1 - 1)), true
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
			decided: make(map[string]decision),
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
		st = &txState{id: tx, resolved: make(chan struct{})}
		sh.txs[tx] = st
	}
	return st
}

// state returns the per-transaction state entry, creating it if
// needed.
func (p *Participant) state(tx string) *txState {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stateLocked(tx)
}

// liveState returns tx's table entry, creating one only if tx is not
// already decided here. A decided transaction whose entry has retired
// comes back as (nil, its decision, true): a late message for it must
// be answered from the decided table, never by re-running the
// transaction on a blank entry.
func (p *Participant) liveState(tx string) (st *txState, d decision, decided bool) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.txs[tx]; ok {
		return st, 0, false
	}
	if d, ok := sh.decided[tx]; ok {
		return nil, d, true
	}
	return sh.stateLocked(tx), 0, false
}

// bundlePending reports whether st is a committed transaction whose
// ballot-0 acceptor bundle here is still incomplete: the decision
// raced ahead of the slowest accept. Caller holds st.mu.
func (st *txState) bundlePending() bool {
	return st.done && st.committed && len(st.paxAccepted) > 0 && !st.paxBundled
}

// retireLocked drops a finished subordinate's table entry; the decided
// table answers for it from here on. Coordinator entries retire in
// unregisterCoord. A committed transaction whose ballot-0 acceptor
// bundle is still incomplete keeps its entry, so the last accept can
// still force the bundle (handlePaxosAccept retires it then). Caller
// holds st.mu.
func (p *Participant) retireLocked(st *txState) {
	if !st.done || st.isCoord || st.bundlePending() {
		return
	}
	sh := p.shardFor(st.id)
	sh.mu.Lock()
	if sh.txs[st.id] == st {
		delete(sh.txs, st.id)
	}
	sh.mu.Unlock()
}

// lookup returns the live table entry for tx without creating one.
// Tests and iteration-averse probes use it.
func (p *Participant) lookup(tx string) (*txState, bool) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.txs[tx]
	return st, ok
}

// forget drops a transaction's table entry (its final outcome stays
// in the decided map for duplicate and inquiry handling).
func (p *Participant) forget(tx string) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	delete(sh.txs, tx)
	sh.mu.Unlock()
}

// forEachDecided calls fn for every decided transaction across all
// shards. Recovery, inquiry handling, and the chaos harness see a
// single logical table through this and Decided — the sharding is
// invisible above this file.
//
// fn runs under the shard's mutex: keep it fast and never call back
// into the participant's state helpers from it.
func (p *Participant) forEachDecided(fn func(tx string, committed bool)) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for tx, d := range sh.decided {
			fn(tx, d.committed())
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
// remembers. Nothing forgets them yet, so it grows with every
// transaction decided here.
func (p *Participant) DecidedTableSize() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.decided)
		sh.mu.Unlock()
	}
	return n
}

// StateTableSize reports the number of live table entries across all
// shards: transactions still in flight here, plus any committed
// acceptor state waiting for its bundle. Finished transactions retire
// from the table, so it returns to 0 once the node is idle; soak tests
// use it to assert the table drains.
func (p *Participant) StateTableSize() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.txs)
		sh.mu.Unlock()
	}
	return n
}
