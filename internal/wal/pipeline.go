package wal

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
)

// Pipeline is the adaptive group-commit force policy. It has no
// goroutine of its own: forcers combine. A forcer that finds no batch
// open opens one and leads it — lingers for stragglers as the window
// allows, hardens the whole log buffer with one physical sync, and
// wakes the batch's followers. Forcers that arrive while a batch is
// open join it and wait for its leader. A batch that opens while the
// previous one is still flushing waits for that flush, gathering
// joiners meanwhile, and then its own first forcer leads it: every
// caller leads at most its own batch, and a lone forcer flushes on its
// own goroutine with no hand-off.
//
// The batching window adapts to the arrival rate: while batches keep
// containing more than one force the window doubles toward maxWindow,
// so a loaded disk absorbs ever-larger groups; as soon as batches
// shrink to single forces the window halves back and then collapses to
// zero, so an idle log forces with near-immediate latency. This is the
// commit-interval adaptation the paper's §4 group-commit discussion
// points at: the fixed window of GroupCommit either wastes latency when
// idle or caps batching under load, and the right value changes with
// the offered load.
//
// A Pipeline serves exactly one Log. The window is measured on the
// injected clock.Scheduler, so virtual-time tests drive it
// deterministically.
type Pipeline struct {
	sched     clock.Scheduler
	maxWindow time.Duration
	base      time.Duration // smallest non-zero window
	stopc     chan struct{} // closed by stop

	mu       sync.Mutex
	stopped  bool
	open     *batch // the batch arriving forcers join; nil when none is open
	flushing *batch // the batch whose leader is flushing it
	spare    *batch // a finished batch nobody waited on, for reuse
	window   time.Duration
	batches  int
	expected int // forces announced via Hint but not yet arrived

	// What one leader leaves the next: only the goroutine leading a
	// batch touches these, and mu orders one leader's writes before the
	// next one's reads.
	lastSync  time.Duration // device time of the previous batch's flush
	lastDone  time.Duration // sched.Now() when the previous batch completed
	idleAvg   time.Duration // EWMA of idle gaps between batches
	rhythmOff bool          // set after a held linger nobody joined
}

// batch is one group of forces answered by one flush.
type batch struct {
	n    int           // forces joined
	max  int64         // highest LSN joined
	err  error         // the flush's result, set before done closes
	done chan struct{} // made by the first goroutine to wait; closed when err is set
}

// batchCap bounds how many forces a leader lingers for.
const batchCap = 1024

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

// NewPipeline returns an adaptive group-commit policy whose batching
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
// to: join the open batch and wait for its leader, or open one and
// lead it. It returns once a sync covering lsn completes, or with
// ErrClosed once the pipeline stops.
func (p *Pipeline) forceLSN(l *Log, lsn int64) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrClosed
	}
	if b := p.open; b != nil {
		p.joinLocked(b, lsn)
		done := b.wait()
		p.mu.Unlock()
		return p.await(b, done)
	}
	b := p.spare
	if b == nil {
		b = new(batch)
	}
	p.spare = nil
	p.open = b
	p.joinLocked(b, lsn)
	var prev chan struct{}
	if p.flushing != nil {
		prev = p.flushing.wait()
	}
	p.mu.Unlock()
	if prev != nil {
		select {
		case <-prev:
		case <-p.stopc:
			return ErrClosed
		}
	}
	return p.lead(l, b)
}

// joinLocked adds a force for lsn to b, meeting one announced force.
func (p *Pipeline) joinLocked(b *batch, lsn int64) {
	b.n++
	if lsn > b.max {
		b.max = lsn
	}
	if p.expected > 0 {
		p.expected--
	}
}

// wait returns the channel b's leader closes when b is answered.
// Caller holds p.mu.
func (b *batch) wait() chan struct{} {
	if b.done == nil {
		b.done = make(chan struct{})
	}
	return b.done
}

// await blocks a follower until its batch is answered or the pipeline
// stops, preferring the batch's answer when both have happened.
func (p *Pipeline) await(b *batch, done chan struct{}) error {
	select {
	case <-done:
		return b.err
	case <-p.stopc:
		select {
		case <-done:
			return b.err
		default:
			return ErrClosed
		}
	}
}

// stop fails every waiting forcer, and every later one, with ErrClosed
// (policyStopper, called by Log.Close and Log.Crash).
func (p *Pipeline) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.stopped {
		p.stopped = true
		close(p.stopc)
	}
}

// Hint announces that n forces are imminent: a caller that just
// learned a burst is coming — one wire packet fanning several Prepares
// into the same log, each about to force — posts the count before
// dispatching the work. The next leader then holds at least the base
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

// hintOutstanding reports whether announced forces have yet to arrive.
func (p *Pipeline) hintOutstanding() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expected > 0
}

// rhythmMinSync gates the rhythm breaker to real devices: a sync
// cheaper than this (an in-memory store) never justifies lingering.
const rhythmMinSync = 20 * time.Microsecond

// lead runs batch b on the caller's goroutine: linger as the window
// allows, close the batch to joiners, flush once, and answer it.
func (p *Pipeline) lead(l *Log, b *batch) error {
	p.idleAvg = (3*p.idleAvg + p.sched.Now() - p.lastDone) / 4
	p.mu.Lock()
	w, hinted := p.window, p.expected > 0
	p.mu.Unlock()
	// A Hint promising more forces than have arrived holds the window
	// open for at least the base linger.
	if hinted && w < p.base {
		w = p.base
	}
	// Rhythm breaker. The adaptation only opens the window after it
	// OBSERVES a multi-force batch, but a closed loop of workers
	// serialized on this log settles into a phase-locked rhythm where
	// each force completes just before the next arrives: batches stay
	// at one forever, every force pays a full device sync, and the
	// observation never happens (1PC is the extreme case — one force
	// per transaction, all on the coordinator's log). When the window
	// is collapsed but the device is busy a large fraction of wall
	// time, hold one gather open past the dry-cut for about an
	// inter-arrival gap: catching even one phase-locked neighbor makes
	// a real batch, and the ordinary adaptation takes over from there.
	// A held linger nobody joins disarms the breaker (a lone sequential
	// forcer must not pay it on every force) until a multi-force batch
	// re-arms it.
	hold := false
	if w < p.base && !p.rhythmOff && p.lastSync > rhythmMinSync && p.idleAvg < 2*p.lastSync {
		hold = true
		w = max(2*p.idleAvg, p.lastSync)
		w = min(w, p.maxWindow)
	}
	if w > 0 {
		joined := p.gather(b, w, hold)
		if hold {
			p.rhythmOff = !joined
		}
	}

	p.mu.Lock()
	if w > 0 {
		// The linger gave every announced straggler its shot; whatever
		// expectation remains is stale and must not haunt later batches.
		p.expected = 0
	}
	p.open, p.flushing = nil, b
	n, lsn := b.n, b.max
	p.mu.Unlock()
	if n > 1 {
		p.rhythmOff = false
	}

	var err error
	if lsn > l.SyncedLSN() || lsn == 0 {
		// lsn == 0 means an explicit Sync-style request with an empty
		// buffer snapshot; flush is cheap and keeps the semantics
		// simple.
		t0 := p.sched.Now()
		err = l.flush()
		p.lastSync = p.sched.Now() - t0
	} else {
		p.lastSync = 0
	}
	p.lastDone = p.sched.Now()

	p.mu.Lock()
	p.flushing = nil
	if b.done != nil {
		b.err = err
		close(b.done)
	} else {
		// Nobody else saw b: keep it for the next batch.
		*b = batch{}
		p.spare = b
	}
	p.adaptLocked(n)
	p.mu.Unlock()
	return err
}

// quietSpins bounds how many empty scheduler yields gather tolerates
// before declaring the arrivals dry and cutting the batch.
const quietSpins = 128

// gather lingers for stragglers joining b while they keep arriving,
// and reports whether any joined. OS timer resolution (a millisecond
// or more on some hosts) dwarfs an fdatasync, so the linger is a
// bounded run of scheduler yields rather than a timer: the countdown
// resets every time a force joins, the batch cuts as soon as arrivals
// stay dry, and the window caps the total wait via the clock. Because
// the adaptation collapses the window to zero on single-force batches,
// sparse traffic never enters this loop at all. With hold set (the
// rhythm breaker), only the deadline cuts: the linger exists precisely
// to outlast a dry spell. A stop cuts it at once.
func (p *Pipeline) gather(b *batch, w time.Duration, hold bool) bool {
	deadline := p.sched.Now() + w
	p.mu.Lock()
	first := b.n
	p.mu.Unlock()
	for seen, spins := first, 0; ; {
		p.mu.Lock()
		n, stopped, hinted := b.n, p.stopped, p.expected > 0
		p.mu.Unlock()
		if stopped || n >= batchCap {
			return n > first
		}
		if n > seen {
			seen, spins = n, 0
		} else if spins++; spins >= quietSpins && !hold && !hinted {
			// Dry arrivals cut the batch — unless a Hint still promises
			// stragglers, in which case only the deadline does: the
			// announced forces are mid-dispatch and worth the bounded
			// wait (one base window, the same order as the fsync the
			// grouping saves).
			return n > first
		}
		runtime.Gosched()
		if p.sched.Now() >= deadline {
			return n > first
		}
	}
}

// adaptLocked widens the window while batches are multi-force and
// collapses it when traffic thins. Caller holds p.mu.
func (p *Pipeline) adaptLocked(n int) {
	p.batches++
	if n > 1 {
		p.window = min(max(p.window*2, p.base), p.maxWindow)
		return
	}
	p.window /= 2
	if p.window < p.base {
		p.window = 0
	}
}

// Window reports the current adaptive batching window (zero when the
// pipeline has collapsed to immediate mode).
func (p *Pipeline) Window() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.window
}

// Batches reports how many batches have been flushed.
func (p *Pipeline) Batches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batches
}
