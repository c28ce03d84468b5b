// Package admission is the daemon's overload-survival subsystem: a
// priority-aware token-bucket admission limiter plus an adaptive
// backpressure controller that tracks the system's measured capacity
// from live runtime signals.
//
// # Priority classes
//
// The paper's cost tables make shedding principled. A read-only
// transaction is the cheap one — under Presumed Abort it costs no
// forced log writes and skips the second phase entirely (Table 2), so
// shedding it saves the least work and it is shed LAST. A wide
// multi-shard read-write transaction is the expensive one — every
// extra participant adds two first-class flows and per-participant
// forced writes (the 2N coordinator flows of Table 2 scale with tree
// size), so it is shed FIRST. ClassFor maps a transaction's cost
// profile (read-only? how many participants?) onto that ordering, and
// CostOf charges tokens proportional to the same profile.
//
// # The limiter
//
// Limiter is a token bucket: capacity Burst, refill Rate tokens per
// second, one token per unit of transaction cost. Priority ordering
// falls out of per-class reserve floors: a class may only draw the
// bucket down to its floor (wide 50% of burst, normal 10%, read-only
// 0), so as the bucket drains under overload, wide fan-out sheds
// first, then ordinary read-write, and read-only keeps being admitted
// until the bucket is empty. Between classes the flow-through rate is
// unchanged — floors arbitrate who gets tokens, not how many there
// are. A shed request gets a retry-after hint: how long the bucket
// needs to refill back to that class's admission point.
//
// # Backpressure
//
// Controller adapts the limiter's rate between a floor and the
// configured ceiling using AIMD (additive increase, multiplicative
// decrease) over live signals the runtime already measures: windowed
// WAL force-latency P99 (the log device is the commit path's shared
// bottleneck), lock-manager wait-queue depth (data contention), and
// coalescer queue depth (transport congestion). Any signal over its
// target multiplies the admit rate down; all signals healthy ramps it
// back up. The admit rate therefore tracks what the machine can
// actually sustain instead of a static flag.
package admission

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Class is a transaction's shed-priority class, ordered by shed
// preference: lower classes shed first.
type Class int

// Priority classes, shed-first to shed-last.
const (
	// ClassWide is a read-write transaction touching WideFanOut or
	// more participants: the most protocol spend per admit, shed first.
	ClassWide Class = iota
	// ClassNormal is an ordinary read-write transaction.
	ClassNormal
	// ClassReadOnly is a transaction of only reads: every node votes
	// read-only, so no forced writes and no second phase under PA
	// (paper Table 2; PN and PC force only the coordinator's
	// pre-prepare record), shed last.
	ClassReadOnly
	// NumClasses bounds per-class arrays.
	NumClasses
)

// String names the class for metrics labels.
func (c Class) String() string {
	switch c {
	case ClassWide:
		return "wide"
	case ClassNormal:
		return "normal"
	case ClassReadOnly:
		return "read-only"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// WideFanOut is the participant count (coordinator included) at and
// above which a read-write transaction classifies as wide fan-out.
const WideFanOut = 4

// ClassFor derives the shed class from a transaction's cost profile:
// whether it only reads, and how many participants (coordinator
// included) its keys resolve to.
func ClassFor(readOnly bool, participants int) Class {
	if readOnly {
		return ClassReadOnly
	}
	if participants >= WideFanOut {
		return ClassWide
	}
	return ClassNormal
}

// CostOf is the token cost of admitting one transaction: read-only
// transactions cost one token regardless of width (no forced writes,
// fewer flows), read-write transactions cost one token per
// participant, tracking the per-participant flow and forced-write
// columns of the paper's tables.
func CostOf(c Class, participants int) float64 {
	if c == ClassReadOnly || participants < 1 {
		return 1
	}
	return float64(participants)
}

// reserveFrac is each class's bucket floor as a fraction of burst: a
// class may only draw tokens while the bucket holds more than its
// floor, so lower-priority classes starve first as the bucket drains.
var reserveFrac = [NumClasses]float64{
	ClassWide:     0.5,
	ClassNormal:   0.1,
	ClassReadOnly: 0,
}

// ClassCounts tallies one class's admission decisions.
type ClassCounts struct {
	Admitted uint64
	Shed     uint64
}

// Stats is a limiter snapshot.
type Stats struct {
	Rate     float64 // current admit rate, tokens/sec (0 = unlimited)
	Burst    float64 // bucket capacity
	Tokens   float64 // tokens available right now
	PerClass [NumClasses]ClassCounts
}

// Limiter is the priority-aware token bucket. Safe for concurrent
// use. A Rate of 0 or below admits everything (the limiter still
// counts, so /metrics stays meaningful with admission off).
type Limiter struct {
	mu       sync.Mutex
	clk      clock.Clock
	rate     float64
	burst    float64
	tokens   float64
	last     time.Duration
	perClass [NumClasses]ClassCounts
}

// NewLimiter builds a limiter reading time from clk, refilling rate
// tokens/second into a bucket of burst capacity (clamped to >= 1).
// The bucket starts full.
func NewLimiter(clk clock.Clock, rate float64, burst int) *Limiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &Limiter{clk: clk, rate: rate, burst: b, tokens: b, last: clk.Now()}
}

// refillLocked accrues tokens for the time since the last refill.
func (l *Limiter) refillLocked() {
	now := l.clk.Now()
	if now > l.last {
		l.tokens += l.rate * (now - l.last).Seconds()
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
}

// Admit decides one transaction of class c and token cost cost
// (clamped to >= 1). ok reports admission; a shed request gets a
// retry-after hint — the time the bucket needs to refill to c's
// admission point at the current rate.
func (l *Limiter) Admit(c Class, cost float64) (ok bool, retryAfter time.Duration) {
	if c < 0 || c >= NumClasses {
		c = ClassNormal
	}
	if cost < 1 {
		cost = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		l.perClass[c].Admitted++
		return true, 0
	}
	l.refillLocked()
	need := cost + reserveFrac[c]*l.burst
	if need > l.burst {
		// A cost so large the reserve would make it inadmissible even
		// from a full bucket: admissible at full, like everything else.
		need = l.burst
	}
	if l.tokens >= need {
		l.tokens -= cost
		l.perClass[c].Admitted++
		return true, 0
	}
	l.perClass[c].Shed++
	deficit := need - l.tokens
	return false, time.Duration(deficit / l.rate * float64(time.Second))
}

// Rate returns the current admit rate.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// SetRate changes the admit rate; the backpressure controller drives
// it. Tokens already in the bucket are kept.
func (l *Limiter) SetRate(r float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked() // settle accrual at the old rate first
	l.rate = r
}

// Stats snapshots the limiter (refilling first, so Tokens is fresh).
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate > 0 {
		l.refillLocked()
	}
	return Stats{Rate: l.rate, Burst: l.burst, Tokens: l.tokens, PerClass: l.perClass}
}

// Signal is one sample of the live overload signals.
type Signal struct {
	// WALForceP99 is the windowed P99 force latency of the protocol
	// WAL — the commit path's shared device queue.
	WALForceP99 time.Duration
	// LockWaiters is the lock manager's total blocked-request count —
	// data contention.
	LockWaiters int
	// CoalesceDepth is the outbound flow coalescer's queued message
	// count — transport congestion.
	CoalesceDepth int
}

func (s Signal) String() string {
	return fmt.Sprintf("wal_force_p99=%s lock_waiters=%d coalesce_depth=%d",
		s.WALForceP99, s.LockWaiters, s.CoalesceDepth)
}

// ControllerConfig shapes the backpressure loop. Zero values take the
// documented defaults.
type ControllerConfig struct {
	// MaxRate is the admit-rate ceiling (the configured -admit-rate);
	// required.
	MaxRate float64
	// MinRate is the floor the controller never drops below. Default
	// MaxRate/20.
	MinRate float64
	// Interval is the sample period. Default 100ms.
	Interval time.Duration
	// WALForceP99Target: a windowed force P99 above this is overload.
	// Default 20ms.
	WALForceP99Target time.Duration
	// LockWaitersTarget: more blocked lock requests than this is
	// overload. Default 64.
	LockWaitersTarget int
	// CoalesceDepthTarget: more queued outbound messages than this is
	// overload. Default 4096.
	CoalesceDepthTarget int
	// DecreaseFactor multiplies the rate on an overloaded tick.
	// Default 0.8.
	DecreaseFactor float64
	// IncreaseStep adds to the rate on a healthy tick. Default
	// MaxRate/50.
	IncreaseStep float64
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.MinRate <= 0 {
		c.MinRate = c.MaxRate / 20
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.WALForceP99Target <= 0 {
		c.WALForceP99Target = 20 * time.Millisecond
	}
	if c.LockWaitersTarget <= 0 {
		c.LockWaitersTarget = 64
	}
	if c.CoalesceDepthTarget <= 0 {
		c.CoalesceDepthTarget = 4096
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.8
	}
	if c.IncreaseStep <= 0 {
		c.IncreaseStep = c.MaxRate / 50
	}
	return c
}

// ControllerSnapshot is the controller's observable state for /varz.
type ControllerSnapshot struct {
	Rate          float64
	LastSignal    Signal
	Ticks         uint64
	OverloadTicks uint64 // ticks that saw at least one signal over target
	Decreases     uint64
	Increases     uint64
}

// Controller runs the AIMD loop: sample the signals, shrink the admit
// rate multiplicatively when any is over target, grow it additively
// back toward the ceiling when all are healthy.
type Controller struct {
	lim    *Limiter
	sched  clock.Scheduler
	sample func() Signal
	cfg    ControllerConfig

	mu   sync.Mutex
	snap ControllerSnapshot

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewController wires a controller over lim. sample is called once
// per tick on the controller's goroutine (or from TickNow in tests).
func NewController(lim *Limiter, sched clock.Scheduler, sample func() Signal, cfg ControllerConfig) *Controller {
	return &Controller{
		lim:    lim,
		sched:  sched,
		sample: sample,
		cfg:    cfg.withDefaults(),
		stop:   make(chan struct{}),
	}
}

// TickNow runs one control step. The run loop calls it on every
// interval; tests drive it directly for determinism.
func (c *Controller) TickNow() {
	sig := c.sample()
	over := sig.WALForceP99 > c.cfg.WALForceP99Target ||
		sig.LockWaiters > c.cfg.LockWaitersTarget ||
		sig.CoalesceDepth > c.cfg.CoalesceDepthTarget

	rate := c.lim.Rate()
	c.mu.Lock()
	c.snap.Ticks++
	c.snap.LastSignal = sig
	switch {
	case over:
		rate *= c.cfg.DecreaseFactor
		if rate < c.cfg.MinRate {
			rate = c.cfg.MinRate
		}
		c.snap.OverloadTicks++
		c.snap.Decreases++
	case rate < c.cfg.MaxRate:
		rate += c.cfg.IncreaseStep
		if rate > c.cfg.MaxRate {
			rate = c.cfg.MaxRate
		}
		c.snap.Increases++
	}
	c.snap.Rate = rate
	c.mu.Unlock()
	c.lim.SetRate(rate)
}

// Start launches the control loop; Stop ends it.
func (c *Controller) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			t := c.sched.NewTimer(c.cfg.Interval)
			select {
			case <-t.C():
			case <-c.stop:
				t.Stop()
				return
			}
			c.TickNow()
		}
	}()
}

// Stop ends the control loop and waits for it to exit.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Snapshot returns the controller's current observable state.
func (c *Controller) Snapshot() ControllerSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.snap
	if s.Ticks == 0 {
		s.Rate = c.lim.Rate()
	}
	return s
}
