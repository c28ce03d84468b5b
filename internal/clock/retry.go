package clock

import "time"

// RetryPolicy governs retransmission of protocol messages whose
// answer has not arrived: Prepares awaiting votes, outcome messages
// awaiting acks, delegations awaiting decisions, and recovery
// inquiries. Delays grow exponentially and are jittered downward so a
// fleet of concurrent transactions does not retransmit in lockstep.
//
// The zero value takes defaults (see DefaultRetryPolicy); a negative
// Jitter disables jitter explicitly.
type RetryPolicy struct {
	// MaxAttempts is the total number of transmissions per message,
	// including the first. 0 means 4.
	MaxAttempts int
	// BaseDelay is the wait before the first retransmission. 0 means
	// 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 1s.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor. 0 means 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomized away (delays
	// shrink by up to Jitter*delay, never grow, so schedules stay
	// within their deadline). 0 means 0.2; negative means none.
	Jitter float64
}

// DefaultRetryPolicy returns the default policy: 4 attempts, 50ms
// base delay doubling up to 1s, 20% downward jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{}.withDefaults()
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts == 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseDelay == 0 {
		rp.BaseDelay = 50 * time.Millisecond
	}
	if rp.MaxDelay == 0 {
		rp.MaxDelay = time.Second
	}
	if rp.Multiplier == 0 {
		rp.Multiplier = 2
	}
	if rp.Jitter == 0 {
		rp.Jitter = 0.2
	}
	if rp.Jitter < 0 {
		rp.Jitter = 0
	}
	return rp
}

// Backoff returns an iterator over the policy's retransmission
// delays, jittered by a generator seeded with seed. Equal seeds give
// equal schedules; building and walking one allocates nothing.
func (rp RetryPolicy) Backoff(seed int64) Backoff {
	return Backoff{policy: rp.withDefaults(), rng: jitterRand(seed)}
}

// Backoff walks a RetryPolicy's delay schedule. It is a value with no
// shared state, so it must not be used from more than one goroutine.
type Backoff struct {
	policy  RetryPolicy
	rng     jitterRand
	attempt int // transmissions already made beyond the first
}

// Next returns the delay to wait before the next retransmission and
// whether another transmission is allowed. The first call returns the
// delay before the first retransmission (the initial send is attempt
// one and is not scheduled here).
func (b *Backoff) Next() (time.Duration, bool) {
	if b.attempt >= b.policy.MaxAttempts-1 {
		return 0, false
	}
	d := float64(b.policy.BaseDelay)
	for i := 0; i < b.attempt; i++ {
		d *= b.policy.Multiplier
		if d >= float64(b.policy.MaxDelay) {
			d = float64(b.policy.MaxDelay)
			break
		}
	}
	if d > float64(b.policy.MaxDelay) {
		d = float64(b.policy.MaxDelay)
	}
	if b.policy.Jitter > 0 {
		d -= b.policy.Jitter * d * b.rng.float64()
	}
	b.attempt++
	return time.Duration(d), true
}

// Attempts reports the transmissions made beyond the first.
func (b *Backoff) Attempts() int { return b.attempt }

// jitterRand is a splitmix64 generator: one word of state, so drawing
// a collection loop's jitter allocates nothing.
type jitterRand uint64

// float64 returns a uniform value in [0, 1).
func (r *jitterRand) float64() float64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
