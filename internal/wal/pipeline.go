package wal

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
)

// Pipeline is the adaptive single-writer force policy: every force
// request is enqueued to one writer goroutine that absorbs concurrent
// requests the way the TCP transport's writer absorbs sends. The
// writer gathers a batch, hardens the whole log buffer with one
// physical sync, and wakes every forcer the sync covered — encode,
// write, and fsync all happen outside the callers' critical sections.
//
// The batching window adapts to the arrival rate: while batches keep
// containing more than one request the window doubles toward
// maxWindow, so a loaded disk absorbs ever-larger groups; as soon as
// batches shrink to single requests the window halves back and then
// collapses to zero, so an idle log forces with near-immediate
// latency. This is the commit-interval adaptation the paper's §4
// group-commit discussion points at: the fixed window of GroupCommit
// either wastes latency when idle or caps batching under load, and
// the right value changes with the offered load.
//
// A Pipeline serves exactly one Log. Timers run on the injected
// clock.Scheduler, so virtual-time tests drive the window
// deterministically.
type Pipeline struct {
	sched     clock.Scheduler
	maxWindow time.Duration
	base      time.Duration // smallest non-zero window

	start sync.Once
	reqs  chan forceReq
	stopc chan struct{}
	stop1 sync.Once

	mu       sync.Mutex
	log      *Log
	window   time.Duration
	batches  int
	expected int // forces announced via Hint but not yet absorbed
}

// batchCap bounds how many force requests one batch may absorb.
const batchCap = 1024

type forceReq struct {
	lsn  int64
	done chan error // buffered(1): the writer never blocks completing a request
}

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline)

// WithBaseWindow sets the smallest non-zero batching window the
// adaptation passes through on its way up from (and down to) zero.
// The default is maxWindow/16.
func WithBaseWindow(d time.Duration) PipelineOption {
	return func(p *Pipeline) {
		if d > 0 {
			p.base = d
		}
	}
}

// NewPipeline returns an adaptive single-writer policy whose batching
// window grows under load up to maxWindow and collapses to zero when
// idle. A nil scheduler defaults to wall time.
func NewPipeline(sched clock.Scheduler, maxWindow time.Duration, opts ...PipelineOption) *Pipeline {
	if sched == nil {
		sched = clock.NewWall()
	}
	if maxWindow < 0 {
		maxWindow = 0
	}
	p := &Pipeline{
		sched:     sched,
		maxWindow: maxWindow,
		base:      maxWindow / 16,
		reqs:      make(chan forceReq, 1024),
		stopc:     make(chan struct{}),
	}
	if p.base <= 0 {
		p.base = 50 * time.Microsecond
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// ForceSync satisfies SyncPolicy for callers that don't thread an
// LSN; it waits for a sync covering everything buffered at call time.
func (p *Pipeline) ForceSync(l *Log) error {
	l.mu.Lock()
	var lsn int64
	if n := len(l.buffered); n > 0 {
		lsn = l.buffered[n-1].LSN
	}
	l.mu.Unlock()
	return p.forceLSN(l, lsn)
}

// forceLSN implements the lsnForcer fast path Log.Force dispatches
// to: enqueue a request for lsn and block until a sync covering it
// completes (or the pipeline stops, yielding ErrClosed).
func (p *Pipeline) forceLSN(l *Log, lsn int64) error {
	p.start.Do(func() {
		p.mu.Lock()
		p.log = l
		p.mu.Unlock()
		go p.run(l)
	})
	req := forceReq{lsn: lsn, done: make(chan error, 1)}
	select {
	case p.reqs <- req:
	case <-p.stopc:
		return ErrClosed
	}
	select {
	case err := <-req.done:
		return err
	case <-p.stopc:
		// The writer may have completed the request concurrently with
		// stopping; prefer its answer if one is already buffered.
		select {
		case err := <-req.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// stop shuts the writer down (policyStopper, called by Log.Close and
// Log.Crash). Pending and queued forcers unblock with ErrClosed.
func (p *Pipeline) stop() {
	p.stop1.Do(func() { close(p.stopc) })
}

// Hint announces that n force requests are imminent: a caller that
// just learned a burst is coming — one wire packet fanning several
// Prepares into the same log, each about to force — posts the count
// before dispatching the work. The writer then holds at least the base
// batching window open even when the adaptation has collapsed to
// immediate mode, so the announced burst hardens under one physical
// sync instead of one apiece. Hints are advisory: an announced force
// that never arrives (a voter that voted no, a logless 1PC leaf) costs
// at most one base-window linger before the expectation is discarded.
func (p *Pipeline) Hint(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.expected += n
	p.mu.Unlock()
}

// takeHint consumes served outstanding expectations and reports
// whether any remain.
func (p *Pipeline) takeHint(served int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expected -= served
	if p.expected < 0 {
		p.expected = 0
	}
	return p.expected > 0
}

// clearHint drops whatever expectation is left: called after a linger,
// which is all the waiting an announcement buys.
func (p *Pipeline) clearHint() {
	p.mu.Lock()
	p.expected = 0
	p.mu.Unlock()
}

// rhythmMinSync gates the rhythm breaker to real devices: a sync
// cheaper than this (an in-memory store) never justifies lingering.
const rhythmMinSync = 20 * time.Microsecond

// run is the single writer. It owns all physical syncing for l.
func (p *Pipeline) run(l *Log) {
	batch := make([]forceReq, 0, batchCap)
	var (
		lastSync  time.Duration // device time of the previous batch's flush
		lastDone  time.Duration // sched.Now() when the previous batch completed
		idleAvg   time.Duration // EWMA of writer idle gaps between batches
		rhythmArm = true        // disarmed after a held linger nobody joined
	)
	for {
		batch = batch[:0]
		select {
		case r := <-p.reqs:
			batch = append(batch, r)
		case <-p.stopc:
			p.drain(batch)
			return
		}
		idle := p.sched.Now() - lastDone
		idleAvg = (3*idleAvg + idle) / 4
		// Absorb everything already queued, free of charge.
		batch = p.absorb(batch)
		// If the adaptive window is open — or a Hint promises more
		// requests than have arrived — linger for stragglers.
		w := p.Window()
		if p.takeHint(len(batch)) && w < p.base {
			w = p.base
		}
		// Rhythm breaker. The adaptation only opens the window after it
		// OBSERVES a multi-request batch, but a closed loop of workers
		// serialized on this log settles into a phase-locked rhythm
		// where each force completes just before the next arrives:
		// batches stay at one forever, every force pays a full device
		// sync, and the observation never happens (1PC is the extreme
		// case — one force per transaction, all on the coordinator's
		// log). When the window is collapsed but the device is busy a
		// large fraction of wall time, hold one gather open past the
		// dry-cut for about an inter-arrival gap: catching even one
		// phase-locked neighbor makes a real batch, and the ordinary
		// adaptation takes over from there. A held linger nobody joins
		// disarms the breaker (a lone sequential forcer must not pay it
		// on every force) until a multi-request batch re-arms it.
		hold := false
		if w < p.base && rhythmArm && lastSync > rhythmMinSync && idleAvg < 2*lastSync {
			hold = true
			w = 2 * idleAvg
			if w < lastSync {
				w = lastSync
			}
			if w > p.maxWindow {
				w = p.maxWindow
			}
		}
		if w > 0 && len(batch) < batchCap {
			joined := -len(batch)
			var stopped bool
			batch, stopped = p.gather(batch, w, hold)
			if stopped {
				p.drain(batch)
				return
			}
			joined += len(batch)
			if hold {
				rhythmArm = joined > 0
			}
			// The linger gave every announced straggler its shot;
			// whatever expectation remains is stale and must not haunt
			// later batches.
			p.clearHint()
		}
		if len(batch) > 1 {
			rhythmArm = true
		}

		var max int64
		for _, r := range batch {
			if r.lsn > max {
				max = r.lsn
			}
		}
		var err error
		if max > l.SyncedLSN() || max == 0 {
			// max == 0 means an explicit Sync-style request with an
			// empty buffer snapshot; flush is cheap and keeps the
			// semantics simple.
			t0 := p.sched.Now()
			err = l.flush()
			lastSync = p.sched.Now() - t0
		} else {
			lastSync = 0
		}
		for _, r := range batch {
			r.done <- err
		}
		lastDone = p.sched.Now()
		p.adapt(len(batch))
	}
}

// quietSpins bounds how many empty scheduler yields gather tolerates
// before declaring the queue dry and cutting the batch.
const quietSpins = 128

// gather lingers for straggler requests while they keep arriving. OS
// timer resolution (a millisecond or more on some hosts) dwarfs an
// fdatasync, so the linger is a bounded run of scheduler yields
// rather than a timer: the countdown resets every time a request
// lands, the batch cuts as soon as the queue stays dry, and the
// window caps the total wait via the clock. Because the adaptation
// collapses the window to zero on single-request batches, sparse
// traffic never enters this loop at all. With hold set (the rhythm
// breaker), only the deadline cuts: the linger exists precisely to
// outlast a dry spell. The second result is true when the pipeline
// stopped mid-gather.
func (p *Pipeline) gather(batch []forceReq, w time.Duration, hold bool) ([]forceReq, bool) {
	deadline := p.sched.Now() + w
	for spins := 0; len(batch) < batchCap; {
		select {
		case r := <-p.reqs:
			batch = append(batch, r)
			spins = 0
			p.takeHint(1)
		case <-p.stopc:
			return batch, true
		default:
			spins++
			// A dry queue cuts the batch — unless a Hint still promises
			// stragglers, in which case only the deadline does: the
			// announced forces are mid-dispatch and worth the bounded
			// wait (one base window, the same order as the fsync the
			// grouping saves).
			if spins >= quietSpins && !hold && !p.hintOutstanding() {
				return batch, false
			}
			runtime.Gosched()
			if p.sched.Now() >= deadline {
				return batch, false
			}
		}
	}
	return batch, false
}

// hintOutstanding reports whether announced forces have yet to arrive.
func (p *Pipeline) hintOutstanding() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expected > 0
}

// absorb appends every request already sitting in the queue, up to
// the batch cap, without blocking.
func (p *Pipeline) absorb(batch []forceReq) []forceReq {
	for len(batch) < batchCap {
		select {
		case r := <-p.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// drain answers every queued request with ErrClosed after stop.
func (p *Pipeline) drain(batch []forceReq) {
	for _, r := range batch {
		r.done <- ErrClosed
	}
	for {
		select {
		case r := <-p.reqs:
			r.done <- ErrClosed
		default:
			return
		}
	}
}

// adapt widens the window while batches are multi-request and
// collapses it when traffic thins.
func (p *Pipeline) adapt(batchLen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batches++
	if batchLen > 1 {
		w := p.window * 2
		if w < p.base {
			w = p.base
		}
		if w > p.maxWindow {
			w = p.maxWindow
		}
		p.window = w
	} else {
		p.window /= 2
		if p.window < p.base {
			p.window = 0
		}
	}
}

// Window reports the current adaptive batching window (zero when the
// pipeline has collapsed to immediate mode).
func (p *Pipeline) Window() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.window
}

// Batches reports how many batches the writer has completed.
func (p *Pipeline) Batches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batches
}
