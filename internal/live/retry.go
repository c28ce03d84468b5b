package live

import (
	"time"

	"repro/internal/clock"
)

// retrySeedFor seeds one collection loop's jitter from the participant
// seed and the transaction id, so schedules are reproducible but
// uncorrelated across transactions. stream separates the loops of one
// transaction (vote collection, acks, inquiries, Paxos rounds); the
// hash runs over tx then stream, so no name is concatenated.
func (p *Participant) retrySeedFor(tx, stream string) int64 {
	return p.retrySeed ^ fnvMore(fnvMore(fnvOffset, tx), stream)
}

// retryAlarm is a collection loop's one timer: it fires at the next
// retransmission on the loop's backoff schedule or at the loop's
// deadline, whichever is sooner.
type retryAlarm struct {
	sched    clock.Scheduler
	bo       clock.Backoff
	deadline time.Duration // scheduler time at which the loop gives up
	t        clock.Timer
}

// newRetryAlarm arms the alarm of a collection loop that gives up
// after timeout, retransmitting on the retry policy's schedule seeded
// by (tx, stream).
func (p *Participant) newRetryAlarm(timeout time.Duration, tx, stream string) retryAlarm {
	now := p.sched.Now()
	a := retryAlarm{sched: p.sched, bo: p.retry.Backoff(p.retrySeedFor(tx, stream)), deadline: now + timeout}
	a.arm(now)
	return a
}

func (a *retryAlarm) arm(now time.Duration) {
	d := a.deadline - now
	if r, ok := a.bo.Next(); ok && r < d {
		d = r
	}
	a.t = a.sched.NewTimer(d)
}

// C fires when the alarm is due.
func (a *retryAlarm) C() <-chan struct{} { return a.t.C() }

// expired is called once C has fired. It reports whether the deadline
// has passed; if not, the alarm re-arms for the next retransmission
// (or for the deadline once the schedule is spent) and the caller
// retransmits.
func (a *retryAlarm) expired() bool {
	now := a.sched.Now()
	if now >= a.deadline {
		return true
	}
	a.arm(now)
	return false
}

// stop releases the armed timer.
func (a *retryAlarm) stop() { a.t.Stop() }
