package core

import (
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// link is the persistent conversation state with one partner,
// surviving across transactions (sessions in LU 6.2 terms).
type link struct {
	peer        protocol.NodeID
	established bool
	// dormant: the partner subtree was left out (suspended); it wakes
	// when data is next sent to it.
	dormant bool
	// okToLeaveOut: the partner promised, on the last successful
	// commit, that it may be omitted from transactions that send it
	// no data.
	okToLeaveOut bool
	// weAreSuspended: this node is the one that promised to stay
	// suspended on this link; it may not initiate work until data
	// arrives.
	weAreSuspended bool
	// pending are deferred messages awaiting a piggyback opportunity
	// (Long Locks acks, implied-ack END triggers ride real packets).
	pending []protocol.Message
}

// Node is one system in the simulation: a transaction manager, its
// local resource managers, its log, and its sessions to partners.
type Node struct {
	id        protocol.NodeID
	eng       *Engine
	store     *wal.MemStore
	log       *wal.Log
	resources []protocol.Resource
	heuristic HeuristicPolicy

	localTime time.Duration
	crashed   bool

	txs   map[protocol.TxID]*txCtx
	links map[protocol.NodeID]*link
	// done remembers outcomes after local completion (until a
	// restart) so duplicate deliveries and inquiries answer cheaply.
	done map[protocol.TxID]Outcome
}

// ID returns the node's identifier.
func (n *Node) ID() protocol.NodeID { return n.id }

// AttachResource enlists a local resource manager; every transaction
// this node participates in will drive it through the 2PC contract.
func (n *Node) AttachResource(r protocol.Resource) { n.resources = append(n.resources, r) }

// ObserveLog wires a resource manager's separate log into the node's
// accounting: every record costs metrics/trace entries, and forced
// records advance the node's virtual time by ForceDelay. The node's
// own TM log is wired automatically.
func (n *Node) ObserveLog(l *wal.Log) { n.observeLog(l) }

// Log returns the node's TM log (for sharing with LRMs under the
// shared-log optimization).
func (n *Node) Log() *wal.Log { return n.log }

func (n *Node) observeLog(l *wal.Log) {
	l.SetObserver(func(rec wal.Record) {
		n.eng.met.LogWrite(string(n.id), rec.Forced)
		n.eng.trc.Add(trace.Event{
			At: n.localTime, Node: string(n.id),
			Kind: trace.KindLogWrite, Tx: rec.Tx, Detail: rec.Kind, Forced: rec.Forced,
		})
		if rec.Forced {
			n.localTime += n.eng.cfg.ForceDelay
		}
	})
}

// logTx writes a TM record for a live transaction context, tracking
// that the transaction has log presence (so completion knows to write
// an END record).
func (n *Node) logTx(c *txCtx, r protocol.LogRecord, force bool) {
	c.round.Logged = true
	n.logRec(c.id, r, force)
}

// afterTx runs fn d from now for c, unless by then the node has
// crashed or c is no longer its state for the transaction. fn gets the
// firing time, to arrive at once it acts.
func (n *Node) afterTx(c *txCtx, d time.Duration, fn func(at time.Duration)) {
	at := n.localTime + d
	n.eng.queue.pushTimer(at, n.id, func() {
		if cur, ok := n.txs[c.id]; ok && cur == c && !n.crashed {
			fn(at)
		}
	})
}

// logOutcome writes c's outcome record as a rule asks.
func (n *Node) logOutcome(c *txCtx, commit bool, w protocol.Write, r protocol.LogRecord) {
	if w == protocol.NoWrite {
		return
	}
	r.Kind = protocol.RecAborted
	if commit {
		r.Kind = protocol.RecCommitted
	}
	n.logTx(c, r, w == protocol.Forced)
}

// logRec writes a TM record; forced writes stall (advance) the node's
// virtual clock via the log observer. The engine runs one variant, so
// every record announces it.
func (n *Node) logRec(tx protocol.TxID, r protocol.LogRecord, force bool) {
	r.Presume = n.eng.cfg.Variant
	rec := wal.Record{Tx: tx.String(), Node: string(n.id), Kind: r.Kind, Data: r.Encode()}
	var err error
	if force {
		_, err = n.log.Force(rec)
	} else {
		_, err = n.log.Append(rec)
	}
	if err != nil {
		panic(fmt.Sprintf("core: node %s log %s: %v", n.id, r.Kind, err))
	}
}

func (n *Node) link(peer protocol.NodeID) *link {
	l, ok := n.links[peer]
	if !ok {
		l = &link{peer: peer}
		n.links[peer] = l
	}
	return l
}

// send transmits msgs to peer in one packet, attaching any deferred
// messages waiting on the link.
func (n *Node) send(to protocol.NodeID, msgs ...protocol.Message) {
	l := n.link(to)
	if len(l.pending) > 0 {
		msgs = append(msgs, l.pending...)
		l.pending = nil
	}
	n.eng.sendPacket(n, to, msgs)
}

// defer_ queues msg for piggybacking on the next packet to peer.
func (n *Node) defer_(to protocol.NodeID, msg protocol.Message) {
	l := n.link(to)
	l.pending = append(l.pending, msg)
}

// flushLinks emits deferred messages as standalone packets (session
// close) and completes transactions that were awaiting implied acks.
func (n *Node) flushLinks() {
	if n.crashed {
		return
	}
	for peer, l := range n.links {
		if len(l.pending) > 0 {
			msgs := l.pending
			l.pending = nil
			n.eng.sendPacket(n, peer, msgs)
		}
	}
	// Transactions waiting only for an implied ack complete now: the
	// session is closing, so the partner will never send more data;
	// the END record can be written (a real system writes it when the
	// session is deallocated).
	for _, c := range n.snapshotTxs() {
		if c.completed() {
			n.writeEndAndForget(c)
		}
	}
}

func (n *Node) snapshotTxs() []*txCtx {
	out := make([]*txCtx, 0, len(n.txs))
	for _, c := range n.txs {
		out = append(out, c)
	}
	return out
}

// deliver dispatches each message of an incoming packet. Crashed
// nodes lose packets silently.
func (n *Node) deliver(pkt protocol.Packet) {
	if n.crashed {
		return
	}
	for _, m := range pkt.Messages {
		n.eng.met.MessageReceived(string(n.id))
		n.eng.trc.Add(trace.Event{
			At: n.localTime, Node: string(n.id), Peer: pkt.From,
			Kind: trace.KindReceive, Tx: m.Tx, Detail: m.Label() + "(" + m.Tx + ")",
		})
		from := protocol.NodeID(pkt.From)
		switch m.Type {
		case protocol.MsgData:
			n.handleData(from, m)
		case protocol.MsgPrepare:
			n.handlePrepare(from, m)
		case protocol.MsgVote:
			n.handleVote(from, m)
		case protocol.MsgCommit:
			n.handleOutcomeMsg(from, m, true)
		case protocol.MsgAbort:
			n.handleOutcomeMsg(from, m, false)
		case protocol.MsgAck:
			n.handleAck(from, m)
		case protocol.MsgInquire:
			n.handleInquire(from, m)
		case protocol.MsgOutcome:
			n.handleOutcomeReply(from, m)
		case protocol.MsgPaxosAccept, protocol.MsgPaxosQuery:
			n.handlePaxosAcceptor(from, m)
		case protocol.MsgPaxosAccepted, protocol.MsgPaxosPromise:
			n.handlePaxosReply(from, m)
		}
	}
}

// trcState records a state transition in the trace.
func (n *Node) trcState(tx protocol.TxID, detail string) {
	n.eng.trc.Add(trace.Event{
		At: n.localTime, Node: string(n.id), Tx: tx.String(),
		Kind: trace.KindState, Detail: detail + "(" + tx.String() + ")",
	})
}

// trcUnlock records that this node's resources released their locks
// for tx — the event the safety oracle's lock-release rule (AC5)
// checks against the decision point.
func (n *Node) trcUnlock(tx protocol.TxID, detail string) {
	n.eng.trc.Add(trace.Event{
		At: n.localTime, Node: string(n.id), Tx: tx.String(),
		Kind: trace.KindUnlock, Detail: detail + "(" + tx.String() + ")",
	})
}

// trcApp records an application-level note.
func (n *Node) trcApp(detail string) {
	n.eng.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Kind: trace.KindApp, Detail: detail})
}

// crash drops all volatile state. The durable log (synced records)
// survives in the store.
func (n *Node) crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.log.Crash()
	n.txs = make(map[protocol.TxID]*txCtx)
	n.done = make(map[protocol.TxID]Outcome)
	for _, l := range n.links {
		l.pending = nil
	}
	n.eng.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Kind: trace.KindError, Detail: "crash"})
}
