// Package clock provides the time abstraction used throughout the
// twopc engine.
//
// The discrete-event simulator advances a Virtual clock
// deterministically: every protocol action (a network hop, a forced
// log write) contributes a configurable cost, so commit latency and
// lock-hold times are exact, reproducible quantities. Live runs (the
// TCP transport, the examples that sleep for real) use a Wall clock.
// RetryPolicy is the retransmission schedule timed by either clock; the
// live runtime and the client library share it.
package clock

import (
	"sync"
	"time"
)

// Clock is a read-only time source. Durations are used instead of
// time.Time because the simulator's epoch is arbitrary: time zero is
// the start of the run.
type Clock interface {
	// Now returns the elapsed time since the start of the run.
	Now() time.Duration
}

// Timer is a one-shot alarm obtained from a Scheduler. C fires (is
// closed) once when the timer matures; Stop cancels a timer that has
// not fired and releases its resources.
type Timer interface {
	C() <-chan struct{}
	Stop()
}

// Scheduler extends Clock with the ability to wake sleepers: code
// that waits (timeouts, retry backoff) takes a Scheduler so it runs
// identically under wall time and under a manually advanced Virtual
// clock — tests drive time forward instead of sleeping.
type Scheduler interface {
	Clock
	// NewTimer returns a timer that fires d from now. A non-positive d
	// yields a timer that is already fired.
	NewTimer(d time.Duration) Timer
}

// Virtual is a manually advanced clock. It is safe for concurrent
// use, although the deterministic simulator drives it from a single
// dispatcher goroutine. Virtual also implements Scheduler: timers
// mature when Advance or AdvanceTo moves the clock past their
// deadline.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration
	timers []*vTimer
}

// NewVirtual returns a virtual clock positioned at time zero.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d and fires every timer whose
// deadline is reached. Negative d is ignored: simulated time never
// runs backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now += d
	fired := v.matureLocked()
	v.mu.Unlock()
	fire(fired)
}

// AdvanceTo moves the clock to t if t is later than the current time,
// firing matured timers. It returns the resulting time, which callers
// may use to detect whether the target was in the past.
func (v *Virtual) AdvanceTo(t time.Duration) time.Duration {
	v.mu.Lock()
	if t > v.now {
		v.now = t
	}
	now := v.now
	fired := v.matureLocked()
	v.mu.Unlock()
	fire(fired)
	return now
}

// NextDeadline returns the deadline of the earliest pending timer and
// whether one exists. Tests use it to advance virtual time exactly to
// the next wake-up instead of guessing step sizes.
func (v *Virtual) NextDeadline() (time.Duration, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	ok := false
	var min time.Duration
	for _, t := range v.timers {
		if !ok || t.deadline < min {
			min, ok = t.deadline, true
		}
	}
	return min, ok
}

// vTimer is a Virtual-clock timer.
type vTimer struct {
	v        *Virtual
	deadline time.Duration
	ch       chan struct{}
	done     bool
}

func (t *vTimer) C() <-chan struct{} { return t.ch }

func (t *vTimer) Stop() {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.v.removeLocked(t)
}

// NewTimer implements Scheduler. The timer fires when the clock
// advances to or past now+d.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vTimer{v: v, deadline: v.now + d, ch: make(chan struct{})}
	if d <= 0 {
		t.done = true
		close(t.ch)
		return t
	}
	v.timers = append(v.timers, t)
	return t
}

// matureLocked collects timers whose deadline has passed, removing
// them from the pending set. Caller holds v.mu; the returned timers
// are fired outside the lock.
func (v *Virtual) matureLocked() []*vTimer {
	var fired []*vTimer
	kept := v.timers[:0]
	for _, t := range v.timers {
		if t.deadline <= v.now {
			t.done = true
			fired = append(fired, t)
		} else {
			kept = append(kept, t)
		}
	}
	v.timers = kept
	return fired
}

func (v *Virtual) removeLocked(t *vTimer) {
	for i, cur := range v.timers {
		if cur == t {
			v.timers = append(v.timers[:i], v.timers[i+1:]...)
			return
		}
	}
}

func fire(timers []*vTimer) {
	for _, t := range timers {
		close(t.ch)
	}
}

// Wall is a Clock backed by the real time.Now, measured from the
// moment it was created.
type Wall struct {
	start time.Time
}

// NewWall returns a wall clock whose zero is the moment of the call.
func NewWall() *Wall { return &Wall{start: time.Now()} }

// Now returns the elapsed wall time since the clock was created.
func (w *Wall) Now() time.Duration { return time.Since(w.start) }

// wallTimer adapts time.Timer to the closed-channel Timer contract.
type wallTimer struct {
	ch   chan struct{}
	t    *time.Timer
	once sync.Once
}

func (t *wallTimer) C() <-chan struct{} { return t.ch }

func (t *wallTimer) Stop() { t.t.Stop() }

// NewTimer implements Scheduler over real time.
func (w *Wall) NewTimer(d time.Duration) Timer {
	t := &wallTimer{ch: make(chan struct{})}
	t.t = time.AfterFunc(d, func() {
		t.once.Do(func() { close(t.ch) })
	})
	return t
}
