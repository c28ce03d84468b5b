package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/txerr"
	"repro/internal/wal"
)

// Errors returned by the engine's scripting API. ErrIncomplete wraps
// the shared txerr.ErrInDoubt sentinel so simulator and live-runtime
// callers test for a stuck commit the same way.
var (
	ErrUnknownNode = errors.New("core: unknown node")
	ErrIncomplete  = fmt.Errorf("core: commit processing did not complete (blocked): %w", txerr.ErrInDoubt)
	ErrSuspended   = errors.New("core: node is suspended (left out) and cannot initiate work")
	ErrCrashed     = errors.New("core: node is crashed")
)

// Engine is the deterministic discrete-event simulator hosting a set
// of nodes and running the commit protocols between them. All virtual
// time, logging, metrics, and tracing flow through it. The engine is
// single-threaded by design: scripts drive it from one goroutine.
type Engine struct {
	cfg   Config
	clk   *clock.Virtual
	met   *metrics.Registry
	trc   *trace.Tracer
	queue eventQueue
	nodes map[protocol.NodeID]*Node
	order []protocol.NodeID

	latency    map[linkKey]time.Duration
	partitions map[linkKey]bool

	// filter, if set, may mutate or drop each message before delivery
	// (seeded loss and fault injection for the chaos harness).
	filter MessageFilter

	txSeq uint64
}

// MessageFilter inspects one in-flight message. It returns the
// (possibly rewritten) message and whether to deliver it at all; a
// false verdict drops the message like a lossy link would.
type MessageFilter func(from, to protocol.NodeID, m protocol.Message) (protocol.Message, bool)

// SetMessageFilter installs (or, with nil, removes) the delivery
// filter. The filter runs after the send is traced and before the
// packet is queued, so a drop is visible in the trace as an error
// event rather than a phantom receive.
func (e *Engine) SetMessageFilter(f MessageFilter) { e.filter = f }

type linkKey struct{ a, b protocol.NodeID }

func normKey(a, b protocol.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewEngine returns an engine with the given configuration (zero
// fields take documented defaults) and an enabled tracer.
func NewEngine(cfg Config) *Engine {
	return &Engine{
		cfg:        cfg.withDefaults(),
		clk:        clock.NewVirtual(),
		met:        metrics.New(),
		trc:        trace.New(),
		nodes:      make(map[protocol.NodeID]*Node),
		latency:    make(map[linkKey]time.Duration),
		partitions: make(map[linkKey]bool),
	}
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Clock returns the engine's virtual clock; resource managers built
// for this engine should account lock time against it.
func (e *Engine) Clock() *clock.Virtual { return e.clk }

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// Trace returns the engine's tracer.
func (e *Engine) Trace() *trace.Tracer { return e.trc }

// DisableTrace swaps in a discarding tracer; benchmarks that only
// want counters call it to avoid accumulating events.
func (e *Engine) DisableTrace() { e.trc = trace.Disabled() }

// AddNode creates a node with an in-memory log and registers it.
func (e *Engine) AddNode(id protocol.NodeID, opts ...NodeOption) *Node {
	if _, dup := e.nodes[id]; dup {
		panic(fmt.Sprintf("core: duplicate node %q", id))
	}
	store := wal.NewMemStore()
	n := &Node{
		id:    id,
		eng:   e,
		store: store,
		log:   wal.New(store),
		txs:   make(map[protocol.TxID]*txCtx),
		links: make(map[protocol.NodeID]*link),
		done:  make(map[protocol.TxID]Outcome),
	}
	n.observeLog(n.log)
	for _, o := range opts {
		o(n)
	}
	e.nodes[id] = n
	e.order = append(e.order, id)
	return n
}

// NodeOption configures a node at creation.
type NodeOption func(*Node)

// WithHeuristic installs the node's heuristic policy: how long it
// stays in doubt before completing unilaterally.
func WithHeuristic(p HeuristicPolicy) NodeOption {
	return func(n *Node) { n.heuristic = p }
}

// Node returns the node with the given id, or nil.
func (e *Engine) Node(id protocol.NodeID) *Node { return e.nodes[id] }

// SetLatency overrides the one-way delay between a and b (both
// directions).
func (e *Engine) SetLatency(a, b protocol.NodeID, d time.Duration) {
	e.latency[normKey(a, b)] = d
}

func (e *Engine) linkLatency(a, b protocol.NodeID) time.Duration {
	if d, ok := e.latency[normKey(a, b)]; ok {
		return d
	}
	return e.cfg.NetDelay
}

// Partition severs the link between a and b: packets in either
// direction are silently lost until Heal.
func (e *Engine) Partition(a, b protocol.NodeID) {
	e.partitions[normKey(a, b)] = true
	e.trc.Add(trace.Event{Node: string(a), Peer: string(b), Kind: trace.KindError, Detail: "partition"})
}

// Heal restores the link between a and b.
func (e *Engine) Heal(a, b protocol.NodeID) {
	delete(e.partitions, normKey(a, b))
	e.trc.Add(trace.Event{Node: string(a), Peer: string(b), Kind: trace.KindError, Detail: "heal"})
}

func (e *Engine) partitioned(a, b protocol.NodeID) bool {
	return e.partitions[normKey(a, b)]
}

// Schedule runs fn on node's timeline after delay (relative to the
// node's current local time). Scripts use it to inject failures or
// chained work mid-protocol.
func (e *Engine) Schedule(node protocol.NodeID, delay time.Duration, fn func()) {
	n := e.nodes[node]
	if n == nil {
		panic(fmt.Sprintf("core: Schedule on unknown node %q", node))
	}
	at := n.localTime + delay
	e.queue.pushTimer(at, node, func() {
		e.arriveAt(n, at)
		fn()
	})
}

// Drain runs the event loop until no events remain. A safety bound
// protects against protocol bugs that would self-perpetuate forever.
//
// Node-local virtual time is advanced by the event closures
// themselves, not here: a stale timer (e.g. an ack timer whose ack
// arrived long ago) must not drag a node's clock forward.
func (e *Engine) Drain() {
	const maxEvents = 2_000_000
	for i := 0; i < maxEvents; i++ {
		if !e.Step() {
			return
		}
	}
	panic("core: event queue failed to drain (livelock?)")
}

// Step processes a single event; it reports whether one was pending.
// Tests that freeze the world mid-protocol use it.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	ev.fn()
	return true
}

// settle processes in-flight message deliveries (and their cascades)
// until only timers remain queued. Script steps between protocol
// actions use it: the messages they triggered land, but the virtual
// clock does not fast-forward into timeouts that belong to the
// protocol's future.
func (e *Engine) settle() {
	const maxEvents = 2_000_000
	var timers []*event
	for i := 0; i < maxEvents; i++ {
		ev := e.queue.pop()
		if ev == nil {
			for _, t := range timers {
				e.queue.pushExisting(t)
			}
			return
		}
		if ev.timer {
			timers = append(timers, ev)
			continue
		}
		ev.fn()
	}
	panic("core: settle failed to drain (livelock?)")
}

// arriveAt advances a node's local clock (and the engine clock, which
// lock managers account against) to an event's time. Event closures
// call it when — and only when — they actually act.
func (e *Engine) arriveAt(n *Node, at time.Duration) {
	if at > n.localTime {
		n.localTime = at
	}
	e.clk.AdvanceTo(at)
}

// Crash fails node immediately: its volatile state (transaction
// contexts, buffered log records) is lost; the durable log remains
// for a later Restart. In-flight packets addressed to it are dropped
// on delivery.
func (e *Engine) Crash(id protocol.NodeID) {
	n := e.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("core: Crash on unknown node %q", id))
	}
	n.crash()
}

// CrashAt schedules a crash after delay on the node's timeline.
func (e *Engine) CrashAt(id protocol.NodeID, delay time.Duration) {
	e.Schedule(id, delay, func() { e.nodes[id].crash() })
}

// Restart recovers node from its durable log after delay: the node
// scans the log, reinstates transaction state, and initiates the
// variant's recovery processing (resending outcomes it owes,
// inquiring about in-doubt transactions).
func (e *Engine) Restart(id protocol.NodeID, delay time.Duration) {
	n := e.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("core: Restart of unknown node %q", id))
	}
	at := n.localTime + delay
	e.queue.pushTimer(at, id, func() {
		e.arriveAt(n, at)
		n.restart()
	})
}

// FlushSessions emits any deferred (piggyback-pending) messages as
// standalone packets and delivers implied acks for completed
// transactions, as closing the sessions would. Chained-transaction
// scripts call it at the very end.
func (e *Engine) FlushSessions() {
	for _, id := range e.order {
		e.nodes[id].flushLinks()
	}
	e.Drain()
}

// OutcomeAt reports the locally known outcome of tx at node: what the
// node decided or was told, whether or not it has forgotten the
// transaction. Tests use it to assert atomicity across the tree.
func (e *Engine) OutcomeAt(id protocol.NodeID, tx protocol.TxID) (Outcome, bool) {
	n := e.nodes[id]
	if n == nil {
		return OutcomeUnknown, false
	}
	if o, ok := n.done[tx]; ok {
		return o, true
	}
	if c, ok := n.txs[tx]; ok && c.sub.Done {
		return outcomeOf(c.sub), true
	}
	return OutcomeUnknown, false
}

// InDoubtAt reports whether node currently holds tx prepared with no
// outcome.
func (e *Engine) InDoubtAt(id protocol.NodeID, tx protocol.TxID) bool {
	n := e.nodes[id]
	if n == nil {
		return false
	}
	c, ok := n.txs[tx]
	return ok && c.inDoubt()
}

// LogRecords returns the durable log records of node.
func (e *Engine) LogRecords(id protocol.NodeID) []wal.Record {
	n := e.nodes[id]
	if n == nil {
		return nil
	}
	recs, err := n.log.Records()
	if err != nil {
		return nil
	}
	return recs
}

// nextTxID mints a transaction id originating at node.
func (e *Engine) nextTxID(origin protocol.NodeID) protocol.TxID {
	e.txSeq++
	return protocol.TxID{Origin: origin, Seq: e.txSeq}
}

// sendPacket routes pkt from n, applying latency, partitions, and
// crash drops, and accounting each message as a flow (piggybacked
// beyond the first).
func (e *Engine) sendPacket(n *Node, to protocol.NodeID, msgs []protocol.Message) {
	dst := e.nodes[to]
	if dst == nil {
		panic(fmt.Sprintf("core: send to unknown node %q", to))
	}
	for i, m := range msgs {
		e.met.MessageSent(string(n.id), i > 0)
		e.trc.Add(trace.Event{
			At: n.localTime, Node: string(n.id), Peer: string(to),
			Kind: trace.KindSend, Tx: m.Tx, Detail: m.Label() + "(" + m.Tx + ")",
		})
	}
	e.met.PacketSent(string(n.id), msgs[0].Type != protocol.MsgData)
	if e.partitioned(n.id, to) {
		e.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Peer: string(to),
			Kind: trace.KindError, Detail: "packet lost (partition)"})
		return
	}
	if e.filter != nil {
		kept := msgs[:0:0]
		for _, m := range msgs {
			fm, deliver := e.filter(n.id, to, m)
			if !deliver {
				e.trc.Add(trace.Event{At: n.localTime, Node: string(n.id), Peer: string(to),
					Kind: trace.KindError, Tx: m.Tx, Detail: "packet lost (chaos): " + m.Label()})
				continue
			}
			kept = append(kept, fm)
		}
		if len(kept) == 0 {
			return
		}
		msgs = kept
	}
	arrive := n.localTime + e.linkLatency(n.id, to)
	pkt := protocol.Packet{From: string(n.id), To: string(to), Messages: msgs}
	e.queue.push(arrive, to, func() {
		e.arriveAt(dst, arrive)
		dst.deliver(pkt)
	})
}
