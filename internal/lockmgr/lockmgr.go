// Package lockmgr implements the strict two-phase-locking substrate
// the resource managers use.
//
// The paper's motivation for faster commit processing is that locks
// are released sooner, shrinking the window in which other
// transactions block. To measure that, the manager accounts lock hold
// time against a pluggable clock (virtual in the simulator, wall in
// live runs) and reports per-transaction and cumulative durations.
//
// Both acquisition styles the engine needs are provided: TryAcquire
// for the deterministic single-threaded simulator (a conflict is
// surfaced immediately) and Acquire for live goroutine workloads
// (FIFO blocking with context cancellation; AcquireUntil adds a
// deadline). Deadlocks among blocked transactions are detected with a
// waits-for graph.
//
// The lock table is sharded by fnv-hashed key (GOMAXPROCS-derived
// shard count, overridable with WithShards), so independent
// transactions touching unrelated keys never contend on one mutex.
// Only the waits-for graph is global — it is consulted exclusively on
// the slow path, when a request actually blocks.
//
// The table holds only keys that are in use: a key's state is freed
// the moment it has no holder and no waiter, and freed states are
// recycled, so the table's size follows the in-flight work rather
// than the number of keys ever locked.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Mode is a lock mode.
type Mode int

// Lock modes. Shared locks are mutually compatible; an Exclusive lock
// is compatible with nothing (except locks held by the same owner,
// which may upgrade).
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Errors returned by the manager.
var (
	// ErrConflict is returned by TryAcquire when the lock cannot be
	// granted immediately.
	ErrConflict = errors.New("lockmgr: lock conflict")
	// ErrDeadlock is returned by Acquire when granting would create a
	// waits-for cycle; the caller is the chosen victim.
	ErrDeadlock = errors.New("lockmgr: deadlock detected")
)

// Held describes one released lock and how long it was held.
type Held struct {
	Key  string
	Mode Mode
	Hold time.Duration
}

// holder is one owner's grant on a key.
type holder struct {
	owner   string
	mode    Mode
	granted time.Duration // clock time of grant
}

type waiter struct {
	owner string
	mode  Mode
	ready chan struct{} // closed on grant
	err   error         // set before ready is closed on failure
}

// lockState is one in-use key: its holders (a writer, or a handful of
// readers, so a slice beats a map) and its FIFO wait queue.
type lockState struct {
	holders []holder
	queue   []*waiter
}

// holder returns owner's grant on the key, or nil.
func (ls *lockState) holder(owner string) *holder {
	for i := range ls.holders {
		if ls.holders[i].owner == owner {
			return &ls.holders[i]
		}
	}
	return nil
}

// dropHolder removes owner's grant and returns it.
func (ls *lockState) dropHolder(owner string) (holder, bool) {
	for i, h := range ls.holders {
		if h.owner == owner {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders[last] = holder{}
			ls.holders = ls.holders[:last]
			return h, true
		}
	}
	return holder{}, false
}

// statePool recycles freed lock states with their slices' capacity,
// so a key that comes back into use costs no allocation.
var statePool = sync.Pool{New: func() any { return new(lockState) }}

// freeState resets ls and returns it to the pool. The reset drops
// every owner string and waiter, so a recycled state carries nothing
// of its previous key.
func freeState(ls *lockState) {
	clear(ls.holders)
	clear(ls.queue)
	ls.holders, ls.queue = ls.holders[:0], ls.queue[:0]
	statePool.Put(ls)
}

// lockShard is one hash bucket of the lock table: a self-contained
// map of in-use keys and its hold-time total, under one mutex.
type lockShard struct {
	clk    clock.Clock
	idx    int
	owners *ownerIndex

	mu       sync.Mutex
	locks    map[string]*lockState
	totalSum time.Duration
}

// heldKey is one key an owner holds and the lock shard it lives in.
type heldKey struct {
	key   string
	shard int
}

// ownerIndex records, per owner, every key the owner holds, so
// ReleaseAll locks only the shards the owner touched. It is sharded by
// owner hash like the lock table, and a lock shard's mutex is always
// taken before an owner shard's (grants record themselves here).
type ownerIndex struct {
	shards []ownerShard
	mask   uint32
}

type ownerShard struct {
	mu   sync.Mutex
	held map[string][]heldKey // owner -> keys held, in grant order
}

func (ix *ownerIndex) shard(owner string) *ownerShard {
	return &ix.shards[fnv32a(owner)&ix.mask]
}

// add records that owner now holds key in lock shard shard.
func (ix *ownerIndex) add(owner, key string, shard int) {
	os := ix.shard(owner)
	os.mu.Lock()
	os.held[owner] = append(os.held[owner], heldKey{key: key, shard: shard})
	os.mu.Unlock()
}

// take removes and returns owner's held keys.
func (ix *ownerIndex) take(owner string) []heldKey {
	os := ix.shard(owner)
	os.mu.Lock()
	defer os.mu.Unlock()
	keys := os.held[owner]
	delete(os.held, owner)
	return keys
}

// fnv32a is the 32-bit FNV-1a hash of s.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Manager is a sharded lock manager. The zero value is unusable;
// construct with New.
type Manager struct {
	clk    clock.Clock
	shards []*lockShard
	mask   uint32
	owners ownerIndex

	// The waits-for graph is global (a cycle may span shards) but
	// slow-path only: it is touched when a request blocks, never on a
	// grant. Lock order is graphMu before any shard mutex; no path
	// takes graphMu while holding a shard mutex.
	graphMu sync.Mutex
	waitsOn map[string]string // blocked owner -> key it waits on
}

// Option configures a Manager at construction time.
type Option func(*managerConfig)

type managerConfig struct {
	shards int
}

// WithShards overrides the lock-table shard count (rounded up to a
// power of two). n < 1 selects the GOMAXPROCS-derived default; 1
// recovers the unsharded pre-sharding behavior.
func WithShards(n int) Option {
	return func(c *managerConfig) { c.shards = n }
}

// DefaultShards is the GOMAXPROCS-derived shard count New uses when
// WithShards is not given.
func DefaultShards() int {
	return nextPow2(clampInt(4*runtime.GOMAXPROCS(0), 1, 128))
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func clampInt(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// New returns an empty manager accounting time against clk.
func New(clk clock.Clock, opts ...Option) *Manager {
	cfg := managerConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.shards
	if n < 1 {
		n = DefaultShards()
	}
	n = nextPow2(n)
	m := &Manager{
		clk:     clk,
		shards:  make([]*lockShard, n),
		mask:    uint32(n - 1),
		owners:  ownerIndex{shards: make([]ownerShard, n), mask: uint32(n - 1)},
		waitsOn: make(map[string]string),
	}
	for i := range m.shards {
		m.shards[i] = &lockShard{
			clk:    clk,
			idx:    i,
			owners: &m.owners,
			locks:  make(map[string]*lockState),
		}
		m.owners.shards[i] = ownerShard{held: make(map[string][]heldKey)}
	}
	return m
}

// ShardCount reports the configured shard count; tests use it to
// construct keys that land in specific shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

// shard maps a key to its shard by fnv-1a hash.
func (m *Manager) shard(key string) *lockShard {
	return m.shards[fnv32a(key)&m.mask]
}

// ShardIndex exposes the key-to-shard mapping for tests.
func (m *Manager) ShardIndex(key string) int {
	return int(fnv32a(key) & m.mask)
}

// state returns key's lock state, taking a recycled one into the
// table if the key is not in use. Caller holds sh.mu.
func (sh *lockShard) state(key string) *lockState {
	ls, ok := sh.locks[key]
	if !ok {
		ls = statePool.Get().(*lockState)
		sh.locks[key] = ls
	}
	return ls
}

// freeIfIdleLocked drops key from the table once nobody holds or
// waits for it. Caller holds sh.mu.
func (sh *lockShard) freeIfIdleLocked(key string, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(sh.locks, key)
		freeState(ls)
	}
}

// compatible reports whether owner may hold key in mode given current
// holders (ignoring the queue).
func compatible(ls *lockState, owner string, mode Mode) bool {
	for _, h := range ls.holders {
		if h.owner == owner {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// grantLocked records the grant. Caller holds sh.mu.
func (sh *lockShard) grantLocked(ls *lockState, key, owner string, mode Mode) {
	h := ls.holder(owner)
	if h == nil {
		ls.holders = append(ls.holders, holder{owner: owner, mode: mode, granted: sh.clk.Now()})
		sh.owners.add(owner, key, sh.idx)
	} else if mode == Exclusive && h.mode == Shared {
		h.mode = Exclusive // upgrade keeps the original grant time
	}
}

// canGrantLocked applies the FIFO fairness rule: a request is
// grantable if it is compatible with the holders and no earlier
// waiter from a different owner is queued (which prevents writer
// starvation). Re-requests and upgrades by an existing holder bypass
// the queue.
func canGrantLocked(ls *lockState, owner string, mode Mode) bool {
	if !compatible(ls, owner, mode) {
		return false
	}
	if ls.holder(owner) != nil {
		return true
	}
	for _, w := range ls.queue {
		if w.owner != owner {
			return false
		}
	}
	return true
}

// TryAcquire grants the lock immediately or returns ErrConflict. It
// never blocks, which makes it safe to call from the deterministic
// simulator's single dispatcher.
func (m *Manager) TryAcquire(owner, key string, mode Mode) error {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.state(key)
	if h := ls.holder(owner); h != nil && (mode == Shared || h.mode == Exclusive) {
		return nil // already held in a sufficient mode
	}
	if !canGrantLocked(ls, owner, mode) {
		return fmt.Errorf("%w: %s wants %v on %q", ErrConflict, owner, mode, key)
	}
	sh.grantLocked(ls, key, owner, mode)
	return nil
}

// Acquire blocks until the lock is granted, ctx is done, or a
// deadlock is detected (in which case the caller is the victim).
func (m *Manager) Acquire(ctx context.Context, owner, key string, mode Mode) error {
	return m.AcquireUntil(ctx, owner, key, mode, time.Time{})
}

// AcquireUntil is Acquire that also gives up at deadline, unless the
// deadline is zero, with an error matching context.DeadlineExceeded.
// The timer for the deadline is armed only when the request has to
// wait, so a lock granted at once costs no timer.
func (m *Manager) AcquireUntil(ctx context.Context, owner, key string, mode Mode, deadline time.Time) error {
	sh := m.shard(key)
	sh.mu.Lock()
	ls := sh.state(key)
	if h := ls.holder(owner); h != nil && (mode == Shared || h.mode == Exclusive) {
		sh.mu.Unlock()
		return nil
	}
	if canGrantLocked(ls, owner, mode) {
		sh.grantLocked(ls, key, owner, mode)
		sh.mu.Unlock()
		return nil
	}
	w := &waiter{owner: owner, mode: mode, ready: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	sh.mu.Unlock()

	// The wait edge goes into the graph before the cycle check, so two
	// racing requests that jointly close a cycle cannot both miss it
	// (at worst both are victimized — safe, just unlucky).
	m.graphMu.Lock()
	m.waitsOn[owner] = key
	cyclic := m.cyclicLocked(owner, key)
	m.graphMu.Unlock()
	if cyclic {
		sh.mu.Lock()
		granted := false
		select {
		case <-w.ready:
			granted = true // raced with a release; the grant wins
		default:
			sh.removeWaiterLocked(key, w)
		}
		sh.mu.Unlock()
		m.clearWait(owner)
		if granted {
			return w.err
		}
		return fmt.Errorf("%w: victim %s waiting for %q", ErrDeadlock, owner, key)
	}

	var expired <-chan time.Time // nil: no deadline, never fires
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-w.ready:
		m.clearWait(owner)
		return w.err
	case <-ctx.Done():
		m.abandonWait(sh, key, w)
		return ctx.Err()
	case <-expired:
		m.abandonWait(sh, key, w)
		return fmt.Errorf("lockmgr: %s waited past its deadline for %q: %w", owner, key, context.DeadlineExceeded)
	}
}

// abandonWait withdraws a waiter that gave up.
func (m *Manager) abandonWait(sh *lockShard, key string, w *waiter) {
	sh.mu.Lock()
	sh.removeWaiterLocked(key, w)
	sh.mu.Unlock()
	m.clearWait(w.owner)
}

func (m *Manager) clearWait(owner string) {
	m.graphMu.Lock()
	delete(m.waitsOn, owner)
	m.graphMu.Unlock()
}

func (sh *lockShard) removeWaiterLocked(key string, w *waiter) {
	ls, ok := sh.locks[key]
	if !ok {
		return
	}
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	sh.wakeLocked(key)
	sh.freeIfIdleLocked(key, ls)
}

// cyclicLocked walks the waits-for graph: owner is waiting for the
// holders of key; if any chain of waits leads back to owner, the wait
// is unsafe. Caller holds graphMu; shard mutexes are taken briefly
// (one at a time) to snapshot holders.
func (m *Manager) cyclicLocked(owner, start string) bool {
	visited := make(map[string]bool)
	var blockedBy func(key string, depth int) bool
	blockedBy = func(key string, depth int) bool {
		if depth > 1000 {
			return false
		}
		sh := m.shard(key)
		sh.mu.Lock()
		var level []string
		if ls, ok := sh.locks[key]; ok {
			for _, h := range ls.holders {
				level = append(level, h.owner)
			}
		}
		sh.mu.Unlock()
		for _, h := range level {
			if h == owner {
				return true
			}
			if visited[h] {
				continue
			}
			visited[h] = true
			if next, waiting := m.waitsOn[h]; waiting && blockedBy(next, depth+1) {
				return true
			}
		}
		return false
	}
	return blockedBy(start, 0)
}

// wakeLocked grants as many queued waiters on key as compatibility
// allows, in FIFO order. Caller holds sh.mu.
func (sh *lockShard) wakeLocked(key string) {
	ls, ok := sh.locks[key]
	if !ok {
		return
	}
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !compatible(ls, w.owner, w.mode) {
			return
		}
		copy(ls.queue, ls.queue[1:])
		ls.queue[len(ls.queue)-1] = nil
		ls.queue = ls.queue[:len(ls.queue)-1]
		sh.grantLocked(ls, key, w.owner, w.mode)
		close(w.ready)
	}
}

// ReleaseAll releases every lock owner holds, returning the released
// locks with their hold durations, and wakes eligible waiters. It is
// the unlock step of strict 2PL: all locks drop together at commit or
// abort (shard by shard; within a shard the release is atomic). Only
// the shards holding one of owner's keys are locked.
func (m *Manager) ReleaseAll(owner string) []Held {
	keys := m.owners.take(owner)
	if len(keys) == 0 {
		return nil
	}
	// Group the keys by shard so each shard is locked once.
	slices.SortStableFunc(keys, func(a, b heldKey) int { return a.shard - b.shard })
	now := m.clk.Now()
	out := make([]Held, 0, len(keys))
	for i := 0; i < len(keys); {
		sh := m.shards[keys[i].shard]
		var shardSum time.Duration
		sh.mu.Lock()
		for ; i < len(keys) && m.shards[keys[i].shard] == sh; i++ {
			key := keys[i].key
			ls, ok := sh.locks[key]
			if !ok {
				continue
			}
			h, ok := ls.dropHolder(owner)
			if !ok {
				continue
			}
			hold := max(now-h.granted, 0)
			out = append(out, Held{Key: key, Mode: h.mode, Hold: hold})
			shardSum += hold
			sh.wakeLocked(key)
			sh.freeIfIdleLocked(key, ls)
		}
		sh.totalSum += shardSum
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b Held) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Holds reports whether owner currently holds key in at least mode.
func (m *Manager) Holds(owner, key string, mode Mode) bool {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls, ok := sh.locks[key]
	if !ok {
		return false
	}
	h := ls.holder(owner)
	return h != nil && (mode == Shared || h.mode == Exclusive)
}

// HeldKeys returns the sorted keys owner currently holds.
func (m *Manager) HeldKeys(owner string) []string {
	os := m.owners.shard(owner)
	os.mu.Lock()
	var out []string
	for _, k := range os.held[owner] {
		out = append(out, k.key)
	}
	os.mu.Unlock()
	slices.Sort(out)
	return out
}

// TotalHoldTime returns cumulative released hold time across all
// owners.
func (m *Manager) TotalHoldTime() time.Duration {
	var sum time.Duration
	for _, sh := range m.shards {
		sh.mu.Lock()
		sum += sh.totalSum
		sh.mu.Unlock()
	}
	return sum
}

// TotalWaiters reports how many lock requests are blocked across the
// whole manager. It is the live congestion signal admission-control
// backpressure samples: a deep wait queue means transactions are
// serializing on data contention, so admitting more offered load only
// lengthens lock hold times (the paper's Section 4 observation that
// lock time, not message count, bounds throughput under contention).
func (m *Manager) TotalWaiters() int {
	total := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, ls := range sh.locks {
			total += len(ls.queue)
		}
		sh.mu.Unlock()
	}
	return total
}

// TableSize reports how many keys are in use — held or waited for —
// across the whole manager. Idle keys are freed, so this is the lock
// table's size, and it returns to 0 when no transaction holds a lock.
func (m *Manager) TableSize() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.locks)
		sh.mu.Unlock()
	}
	return n
}

// WaiterCount reports how many requests are queued on key; tests use
// it to assert fairness behavior.
func (m *Manager) WaiterCount(key string) int {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls, ok := sh.locks[key]; ok {
		return len(ls.queue)
	}
	return 0
}
