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
	a.t = a.sched.NewTimer(nextDue(&a.bo, now, a.deadline) - now)
}

// nextDue is when a loop retransmitting on bo acts next after now: at
// bo's next delay, or at deadline once that is sooner or bo is spent.
func nextDue(bo *clock.Backoff, now, deadline time.Duration) time.Duration {
	if r, ok := bo.Next(); ok && now+r < deadline {
		return now + r
	}
	return deadline
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

// resendLoop is the participant's one resender, running while a pin
// is resent (awaitAcks). Each pass sends a pin's outcome again, when
// due, to those still owing acks; past its deadline it counts each ack
// still owed in doubt and leaves the pin to late acks and reannounce.
// It sleeps until the earliest resend due, but never longer than the
// shortest first delay a new pin can draw, so none is late.
func (p *Participant) resendLoop() {
	tick := max(min(p.retry.MinFirstDelay(), p.ackTimeout), time.Millisecond)
	var out []resend
	for {
		now := p.sched.Now()
		next := now + tick
		for _, sh := range p.shards {
			sh.mu.Lock()
			for tx, r := range sh.resends {
				pe := sh.pinned[tx]
				switch {
				case now < r.due:
				case now >= r.deadline:
					delete(sh.resends, tx)
					p.owing.Add(-1)
					for _, s := range pe.waiting {
						if p.met != nil {
							p.met.InDoubtEntry(s)
						}
					}
					continue
				default:
					for _, s := range pe.waiting {
						out = append(out, resend{s, outcomeMsg(tx, pe.d.committed(), pe.redo, s)})
					}
					r.due = nextDue(&r.bo, now, r.deadline)
					sh.resends[tx] = r
				}
				next = min(next, r.due)
			}
			sh.mu.Unlock()
			for _, r := range out {
				_ = p.sendExtra(r.to, r.m)
				p.countRetry()
			}
			clear(out)
			out = out[:0]
		}
		if p.owing.Load() == 0 {
			// Quiet: exit, unless a pin owed meanwhile found this loop
			// still running.
			p.resending.Store(false)
			if p.owing.Load() == 0 || !p.resending.CompareAndSwap(false, true) {
				return
			}
		}
		t := p.sched.NewTimer(next - now)
		select {
		case <-t.C():
		case <-p.stopped:
			t.Stop()
			return
		case <-p.crashc:
			t.Stop()
			return
		}
	}
}
