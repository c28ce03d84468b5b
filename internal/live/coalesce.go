package live

import (
	"sync"

	"repro/internal/netsim"
	"repro/internal/protocol"
)

// coalescer batches a participant's outbound messages per peer. Send
// enqueues; a flusher goroutine per busy peer drains the queue and
// ships each batch as one wire packet (Packet.Messages), so messages
// to the same peer that overlap in time share framing, encoding, and
// — over TCP — a syscall, which the flusher makes itself: the TCP
// transport has no writer goroutine of its own. It is the wire-level
// analog of group commit: the first message in a burst pays for the
// packet, the rest ride along as piggybacked flows.
//
// Flushers are transient: one starts when a peer's queue goes
// non-empty and exits when it drains, so an idle participant holds no
// goroutines. A batch is whatever accumulated while the previous
// ep.Send was in flight — latency is never traded for batching.
type coalescer struct {
	p *Participant

	mu        sync.Mutex
	sent      sync.Cond // signalled whenever a batch reaches the endpoint
	peers     map[string]*peerQueue
	wg        sync.WaitGroup // transient flusher goroutines
	closed    bool
	discarded bool
}

// peerQueue is one peer's pending batch. active is true while a
// flusher goroutine owns the queue; guarded by the coalescer's mutex
// (batches are small slices and peers are few, so one lock is cheaper
// than a lock per peer plus a map lock in front of it). queued and
// handed count the messages ever enqueued and ever passed to the
// endpoint, so a crashing sender can wait for what it sent to leave.
type peerQueue struct {
	pending        []protocol.Message
	active         bool
	queued, handed uint64
}

func newCoalescer(p *Participant) *coalescer {
	c := &coalescer{p: p, peers: make(map[string]*peerQueue)}
	c.sent.L = &c.mu
	return c
}

// enqueue appends m to the peer's batch, starting a flusher if none
// is running. piggybacked reports whether m joined a packet another
// message already opened (the batch was non-empty).
func (c *coalescer) enqueue(to string, m protocol.Message) (piggybacked bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false, netsim.ErrClosed
	}
	q := c.peers[to]
	if q == nil {
		q = &peerQueue{}
		c.peers[to] = q
	}
	piggybacked = len(q.pending) > 0
	if q.pending == nil {
		// Batch slices come from the codec's shared pool: the transport
		// (or the receiving participant, over the channel network)
		// recycles each one after the packet is done with it.
		q.pending = protocol.GetMsgSlice(4)
	}
	q.pending = append(q.pending, m)
	q.queued++
	if !q.active {
		q.active = true
		c.wg.Add(1)
		go c.flush(to, q)
	}
	c.mu.Unlock()
	return piggybacked, nil
}

// barrier blocks until every message enqueued so far, to any peer, has
// been passed to the endpoint, or the queues were discarded (a crash).
// Messages enqueued while it waits are not waited for.
func (c *coalescer) barrier() {
	c.mu.Lock()
	defer c.mu.Unlock()
	marks := make(map[*peerQueue]uint64, len(c.peers))
	for _, q := range c.peers {
		if q.handed < q.queued {
			marks[q] = q.queued
		}
	}
	for len(marks) > 0 && !c.discarded {
		c.sent.Wait()
		for q, mark := range marks {
			if q.handed >= mark {
				delete(marks, q)
			}
		}
	}
}

// flush drains one peer's queue: swap the batch out under the lock,
// ship it with no lock held, repeat until the queue is empty. Send
// errors are dropped — a condemned connection loses its in-flight
// packets exactly like the wire does, and the protocol's retries and
// recovery take over.
func (c *coalescer) flush(to string, q *peerQueue) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		batch := q.pending
		if len(batch) == 0 {
			q.active = false
			c.mu.Unlock()
			return
		}
		q.pending = nil
		c.mu.Unlock()
		n := uint64(len(batch))
		_ = c.p.ep.Send(to, protocol.Packet{From: c.p.name, To: to, Messages: batch})
		c.mu.Lock()
		q.handed += n
		c.sent.Broadcast()
		c.mu.Unlock()
	}
}

// depth reports how many messages are enqueued across every peer's
// pending batch — outbound work accepted but not yet on the wire. A
// persistently deep queue means the transport is falling behind the
// protocol, which is why admission backpressure samples it.
func (c *coalescer) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, q := range c.peers {
		total += len(q.pending)
	}
	return total
}

// close stops accepting messages and waits for every queued batch to
// reach the endpoint; Stop calls it before closing the endpoint so
// nothing enqueued before Stop is silently dropped.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}

// discard stops accepting messages and drops every pending batch
// without waiting: a crash loses buffered output by design. Flushers
// mid-Send finish on their own once the endpoint dies.
func (c *coalescer) discard() {
	c.mu.Lock()
	c.closed, c.discarded = true, true
	for _, q := range c.peers {
		q.pending = nil
	}
	c.sent.Broadcast()
	c.mu.Unlock()
}
