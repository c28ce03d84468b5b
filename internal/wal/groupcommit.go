package wal

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// SyncPolicy decides how a logical force request is turned into
// physical syncs. Policies may coalesce concurrent requests (group
// commit) but must not return before the requester's record is in
// stable storage (the LSN-coverage contract documented on Log.Force).
type SyncPolicy interface {
	ForceSync(l *Log) error
}

// ImmediateSync is the classic policy: every force request issues its
// own physical sync.
type ImmediateSync struct{}

// ForceSync flushes the log buffer immediately.
func (ImmediateSync) ForceSync(l *Log) error { return l.flush() }

// GroupCommit coalesces concurrent force requests into batches, the
// optimization of §4 "Group Commits" (originally from IMS Fast-Path).
// A physical sync is issued when Size requests have gathered or when
// MaxDelay elapses since the batch opened, whichever comes first.
// Every force request blocks until a sync covering it completes, so
// durability guarantees are unchanged; only the number of physical
// syncs (and individual latency) differ.
//
// GroupCommit is the fixed-parameter A/B baseline for the adaptive
// Pipeline; its timer runs on an injectable clock.Scheduler so
// virtual-time tests can drive batch expiry deterministically.
type GroupCommit struct {
	size     int
	maxDelay time.Duration
	sched    clock.Scheduler

	mu      sync.Mutex
	cur     *groupBatch
	count   int
	batches int // total batches fired, for tests and benchmarks
}

type groupBatch struct {
	done chan struct{}
	err  error
}

// NewGroupCommit returns a group-commit policy with the given batch
// size and maximum delay. Size is clamped to at least 1; a
// non-positive delay fires batches as soon as the scheduler allows,
// degenerating to near-immediate syncs. The timer defaults to wall
// time; use WithScheduler to inject a virtual clock.
func NewGroupCommit(size int, maxDelay time.Duration) *GroupCommit {
	if size < 1 {
		size = 1
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	return &GroupCommit{size: size, maxDelay: maxDelay, sched: clock.NewWall()}
}

// WithScheduler routes the batch-expiry timer through s and returns g
// for chaining. Call it before the policy sees traffic.
func (g *GroupCommit) WithScheduler(s clock.Scheduler) *GroupCommit {
	if s != nil {
		g.sched = s
	}
	return g
}

// ForceSync joins the current batch (opening one if needed) and
// blocks until the batch's sync completes.
func (g *GroupCommit) ForceSync(l *Log) error {
	g.mu.Lock()
	if g.cur == nil {
		b := &groupBatch{done: make(chan struct{})}
		g.cur = b
		g.count = 0
		t := g.sched.NewTimer(g.maxDelay)
		go func() {
			select {
			case <-t.C():
				g.fire(l, b)
			case <-b.done:
				t.Stop()
			}
		}()
	}
	b := g.cur
	g.count++
	full := g.count >= g.size
	if full {
		// Close the batch to joiners before releasing the lock, so a
		// batch never grows past Size.
		g.cur = nil
		g.batches++
	}
	g.mu.Unlock()

	if full {
		g.sync(l, b)
	}
	<-b.done
	return b.err
}

// fire closes batch b on its timer, unless the size trigger already
// closed it: the cur-pointer check decides which one syncs.
func (g *GroupCommit) fire(l *Log, b *groupBatch) {
	g.mu.Lock()
	if g.cur != b {
		g.mu.Unlock()
		return
	}
	g.cur = nil
	g.batches++
	g.mu.Unlock()
	g.sync(l, b)
}

// sync performs closed batch b's physical sync and releases its
// waiters.
func (g *GroupCommit) sync(l *Log, b *groupBatch) {
	b.err = l.flush()
	close(b.done)
}

// Batches reports how many batches have been fired.
func (g *GroupCommit) Batches() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batches
}
