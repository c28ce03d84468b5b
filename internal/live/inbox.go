package live

import (
	"context"
	"errors"
	"slices"

	"repro/internal/protocol"
)

// Each transaction has one inbox: its input, in the order the receive
// loop read it. One goroutine at a time, the consumer, takes from it
// and touches the transaction's state, blocking work included, so no
// input overtakes an earlier one (DESIGN §9). The consumer is the
// goroutine collecting for a transaction this node coordinates, or
// else a drainer, started when work arrives and gone once the inbox is
// empty. Work is never dropped; a reply is kept only while someone may
// collect it and the inbox holds fewer than inboxLimit inputs.
const inboxLimit = 256

// errStopped ends a collection cut short by Stop.
var errStopped = errors.New("live: participant stopped")

// envelope is one input of a transaction: a message with its sender,
// or a local call to run on the consumer (call). work is fixed on
// arrival: false for a reply to collect.
type envelope struct {
	from string
	msg  protocol.Message
	call func()
	work bool
}

// route hands one inbound message to its transaction. An inquiry, a
// message for a transaction decided here whose entry has retired, and
// an ack the pinned entry waits on are answered at once from the
// tables; everything else joins the transaction's inbox.
func (p *Participant) route(from string, m *protocol.Message) {
	if m.Type == protocol.MsgInquire {
		p.handleInquire(from, m)
		return
	}
	_, decides := protocol.OutcomeOf(m)
	sh := p.shardFor(m.Tx)
	sh.mu.Lock()
	var pe pin
	if m.Type == protocol.MsgAck {
		pe = sh.pinned[m.Tx]
	}
	if pe.waiting != nil {
		// The acks still owed wait on the pinned entry (awaitAcks):
		// strike the sender, counting any damage it reports, since no
		// caller hears of it (a registry shared with that node counts
		// it twice), and release the entry with the last one.
		if i := slices.Index(pe.waiting, from); i >= 0 {
			pe.waiting = append(pe.waiting[:i], pe.waiting[i+1:]...)
			for _, h := range m.Heuristics {
				if h.Damage && p.met != nil {
					p.met.Damage(h.Node)
				}
			}
		}
		done := len(pe.waiting) == 0
		if done {
			pe.waiting = nil
			if _, ok := sh.resends[m.Tx]; ok {
				delete(sh.resends, m.Tx)
				p.owing.Add(-1)
			}
		}
		sh.pinned[m.Tx] = pe
		sh.mu.Unlock()
		if done {
			p.endCoord(m.Tx, pe.ledger)
		}
		return
	}
	st := sh.txs[m.Tx]
	if st == nil || m.Type == protocol.MsgPaxosQuery {
		if d, known := sh.decidedLocked(m.Tx); known {
			sh.mu.Unlock()
			p.answerDecided(from, m, d)
			return
		}
	}
	// Work is a Prepare, a Paxos accept or query, or an outcome this
	// node applies as a subordinate; the rest are replies to collect.
	work := m.Type == protocol.MsgPrepare || m.Type == protocol.MsgPaxosAccept ||
		m.Type == protocol.MsgPaxosQuery || decides && (st == nil || !st.isCoord)
	switch {
	case st == nil && m.Type == protocol.MsgVote && !m.Unsolicited && protocol.HearsOutcome(m.Vote, true):
		// A solicited vote for a transaction this node has no memory
		// of: it sent the Prepare, crashed, and restarted with no
		// pending record. Nothing can have committed without a durable
		// decision here, so abort — durably, so later inquiries get the
		// same answer — rather than resurrecting the transaction as
		// forever "in progress". The transaction's own variant is
		// unknown here, so this node's variant's rules apply. A
		// read-only voter has left: its vote is a reply nobody collects.
		sh.mu.Unlock()
		var c protocol.Coord
		c.Reinstate(p.variant, []string{from}, "")
		p.abort(m.Tx, &c, true)
		return
	case st == nil && work:
		st = sh.stateLocked(m.Tx)
	case st == nil:
		sh.mu.Unlock()
		return // a reply nobody here collects
	}
	start, wake := p.postLocked(st, envelope{from: from, msg: *m, work: work})
	sh.mu.Unlock()
	p.rouse(st, start, wake)
}

// postLocked appends env to st's inbox. A reply is kept only while a
// consumer may read it. It returns what rouse must do once the caller
// has released st's shard mutex: start a drainer for work nobody
// consumes, or wake the consumer.
func (p *Participant) postLocked(st *txState, env envelope) (start bool, wake chan struct{}) {
	if !env.work && (!st.consuming || len(st.inbox)-st.head >= inboxLimit) {
		return false, nil
	}
	st.inbox = append(st.inbox, env)
	if !st.consuming && env.work {
		st.consuming = true
		return true, nil
	}
	return false, st.wake
}

// rouse starts a drainer on st, or wakes a collector waiting in next,
// as postLocked asked, without the shard mutex either will take.
func (p *Participant) rouse(st *txState, start bool, wake chan struct{}) {
	if start {
		go p.drain(st)
		return
	}
	select {
	case wake <- struct{}{}:
	default:
	}
}

// take pops st's next input into env for its consumer. On an empty
// inbox a drainer (idle) gives the consumer role up; a collector gets
// the wake channel it waits on. Inputs move by pointer: a resource's
// Prepare runs on top of a drainer's stack, which starts small.
func (p *Participant) take(st *txState, idle bool, env *envelope) bool {
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	if st.head == len(st.inbox) {
		st.inbox, st.head = st.inbox[:0], 0
		if idle {
			st.consuming = false
		} else if st.wake == nil {
			st.wake = make(chan struct{}, 1)
		}
		return false
	}
	*env = st.inbox[st.head]
	st.inbox[st.head] = envelope{}
	st.head++
	return true
}

// drain consumes st's inbox until it is empty.
func (p *Participant) drain(st *txState) {
	var env envelope
	for p.take(st, true, &env) {
		p.dispatch(st, &env)
	}
}

// release gives up st's consumer role; input still queued passes to a
// drainer.
func (p *Participant) release(st *txState) {
	st.sh.mu.Lock()
	st.consuming = st.head < len(st.inbox)
	start := st.consuming
	st.sh.mu.Unlock()
	if start {
		go p.drain(st)
	}
}

// call runs fn as st's consumer and returns once it has run: at once
// on the calling goroutine when st has no consumer, otherwise on the
// consumer, after the input already queued. Local calls that touch a
// transaction's state take their place in its input order this way.
func (p *Participant) call(st *txState, fn func()) {
	sh := st.sh
	sh.mu.Lock()
	if !st.consuming {
		st.consuming = true
		sh.mu.Unlock()
		fn()
		p.release(st)
		return
	}
	done := make(chan struct{})
	_, wake := p.postLocked(st, envelope{call: func() { fn(); close(done) }, work: true})
	sh.mu.Unlock()
	p.rouse(st, false, wake)
	<-done
}

// dispatch handles one input on st's consumer: a local call, or work
// by its handler. A reply that reaches it has nobody left to collect
// it. Work for an entry that retired while it waited is answered from
// the decided table, as on arrival.
func (p *Participant) dispatch(st *txState, env *envelope) {
	switch {
	case env.call != nil:
		env.call()
		return
	case !env.work:
		return
	}
	m := &env.msg
	var d decision
	var known bool
	if st.gone || m.Type == protocol.MsgPaxosAccept || m.Type == protocol.MsgPaxosQuery {
		st.sh.mu.Lock()
		d, known = st.sh.decidedLocked(st.id)
		st.sh.mu.Unlock()
		if known && (st.gone || m.Type == protocol.MsgPaxosQuery) {
			p.answerDecided(env.from, m, d)
			return
		}
	}
	switch m.Type {
	case protocol.MsgPrepare:
		p.handlePrepare(st, env.from, m)
	case protocol.MsgPaxosAccept, protocol.MsgPaxosQuery:
		p.handlePaxosAcceptor(st, env.from, m, d, known)
	default:
		commit, _ := protocol.OutcomeOf(m)
		p.applyOutcome(st, env.from, m, commit)
	}
}

// answerDecided answers a message for a transaction decided here (d)
// from that decision alone: Paxos traffic gets the outcome; an
// outcome for a coordinator's entry comes from the last agent it
// delegated to, which holds its decision until the ack; anything else
// is a subordinate's, answered by protocol.Sub.Answer.
func (p *Participant) answerDecided(from string, m *protocol.Message, d decision) {
	commit, decides := protocol.OutcomeOf(m)
	v, sub := d.subVariant()
	switch {
	case m.Type == protocol.MsgPaxosAccept || m.Type == protocol.MsgPaxosQuery:
		pm, err := protocol.DecodePaxos(m)
		if to, r, ok := pm.Answer(p.name, from, m.Tx, d.committed()); err == nil && ok {
			_ = p.sendExtra(to, r)
		}
	case decides && !sub:
		if d.committed() == commit {
			_ = p.sendExtra(from, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
		}
	default:
		s := protocol.Sub{Presume: v, Done: true, Committed: d.committed()}
		if step := s.Answer(m); step.Do == protocol.DoReply {
			_ = p.sendExtra(from, step.Msg)
		}
	}
}

// wake says why next returned.
type wake uint8

const (
	gotReply wake = iota // a reply to collect
	resolved             // an outcome was applied here: st is done
	rang                 // the alarm fired
	crashed
	stopping
	cancelled // ctx ended
)

// err is what a collection loop returns when next stops it for w: a
// crash, Stop, or the end of ctx.
func (w wake) err(ctx context.Context) error {
	switch w {
	case crashed:
		return ErrCrashed
	case stopping:
		return errStopped
	}
	return ctx.Err()
}

// next is the one wait of every collection loop, run on st's consumer:
// it handles the work and local calls it meets on the way, and returns
// the next reply, or why it stopped waiting — the alarm, a crash, Stop
// or the end of ctx.
func (p *Participant) next(ctx context.Context, st *txState, alarm <-chan struct{}) (envelope, wake) {
	for {
		if p.Crashed() {
			return envelope{}, crashed
		}
		var env envelope
		if p.take(st, false, &env) {
			if !env.work {
				return env, gotReply
			}
			p.dispatch(st, &env)
			if st.sub.Done {
				return envelope{}, resolved
			}
			continue
		}
		select {
		case <-st.wake:
		case <-alarm:
			return envelope{}, rang
		case <-p.crashc:
			return envelope{}, crashed
		case <-p.stopped:
			return envelope{}, stopping
		case <-ctx.Done():
			return envelope{}, cancelled
		}
	}
}
