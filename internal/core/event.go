package core

import (
	"container/heap"
	"time"

	"repro/internal/protocol"
)

// event is one scheduled occurrence in the discrete-event simulation:
// at virtual time at, run fn in the context of node. Timer events
// (timeouts, heuristic deadlines, scheduled failures) are
// distinguished from message deliveries so that script-time partial
// drains can settle in-flight messages without fast-forwarding the
// virtual clock into future timeouts.
type event struct {
	at    time.Duration
	seq   int64 // tie-breaker: FIFO among simultaneous events
	node  protocol.NodeID
	timer bool
	fn    func()
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue struct {
	items []*event
	seq   int64
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) Less(i, j int) bool {
	if q.items[i].at != q.items[j].at {
		return q.items[i].at < q.items[j].at
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *eventQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *eventQueue) Push(x any) { q.items = append(q.items, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// push schedules a message-delivery event at time at on node's
// timeline.
func (q *eventQueue) push(at time.Duration, node protocol.NodeID, fn func()) {
	q.seq++
	heap.Push(q, &event{at: at, seq: q.seq, node: node, fn: fn})
}

// pushTimer schedules a timer event: it fires only in full drains,
// never in script-time message settles.
func (q *eventQueue) pushTimer(at time.Duration, node protocol.NodeID, fn func()) {
	q.seq++
	heap.Push(q, &event{at: at, seq: q.seq, node: node, timer: true, fn: fn})
}

// pushExisting re-enqueues an event set aside by a partial drain,
// preserving its original ordering key.
func (q *eventQueue) pushExisting(ev *event) { heap.Push(q, ev) }

// pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) pop() *event {
	if q.Len() == 0 {
		return nil
	}
	return heap.Pop(q).(*event)
}
