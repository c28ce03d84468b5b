// Package live runs the commit protocols over real concurrent
// participants — each transaction's input handled in arrival order by
// one consumer at a time, packets over a netsim transport (in-process
// channels or TCP). It
// complements the deterministic simulator in internal/core: the
// simulator produces the paper's exact counts; this package runs the
// same wire protocol with true concurrency, real timeouts, retries,
// and real sockets (examples/netcommit).
//
// The runtime is production-shaped:
//
//   - All six protocol variants (Baseline, PA, PN, PC, Paxos Commit
//     and 1PC) run over the wire; each Prepare announces its variant
//     so one participant can serve mixed-variant traffic.
//   - Many transactions are pipelined per participant: state is a
//     per-transaction table keyed by TxID, and each transaction has
//     one inbox, consumed by the goroutine collecting for it or by a
//     drainer that exits when the inbox is empty (inbox.go). A
//     transaction's messages are handled one at a time, in the order
//     they arrived; concurrent commits never serialize on each other.
//     Pair this with WithAdaptiveCommit to coalesce the WAL forces of
//     concurrent commits into shared syncs.
//   - Vote collection, decision delivery, and in-doubt inquiry all
//     retransmit under a clock.RetryPolicy (exponential backoff + jitter),
//     driven by the internal/clock scheduler so tests run the retry
//     machinery under virtual time with no sleeps.
//   - WithMetrics wires an internal/metrics registry into the path:
//     flows, forced writes, retries, in-doubt entries, and a commit
//     latency histogram exposed via Registry.Snapshot.
//
// The package's sentinel errors are shared with the simulator
// (internal/txerr), so errors.Is(err, ErrTimeout/ErrInDoubt/
// ErrHeuristicDamage) works uniformly across both runtimes.
package live

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/txerr"
	"repro/internal/wal"
)

// Outcome is the result of a live commit.
type Outcome int

// Outcomes of a live commit operation. InDoubt means the caller does
// not know the transaction's fate (e.g. a delegated last agent never
// answered); recovery will resolve it.
const (
	Committed Outcome = iota
	Aborted
	InDoubt
)

// String returns "committed", "aborted", or "in-doubt".
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return "in-doubt"
	}
}

// Sentinel errors, shared with the simulator via internal/txerr so
// errors.Is works across both runtimes.
var (
	// ErrTimeout is returned when votes, acks, or recovery answers do
	// not arrive in time (after retries).
	ErrTimeout = txerr.ErrTimeout
	// ErrInDoubt is returned when an outcome could not be delivered or
	// learned: some participant holds a prepared transaction awaiting
	// recovery.
	ErrInDoubt = txerr.ErrInDoubt
	// ErrHeuristicDamage is returned when an acknowledgment reported a
	// heuristic decision that disagreed with the outcome.
	ErrHeuristicDamage = txerr.ErrHeuristicDamage
)

// ErrCrashed is returned by operations interrupted by an injected
// crash (see Crash and WithFailpoint). A crashed participant's durable
// log survives; Restarted builds its successor.
var ErrCrashed = errors.New("live: participant crashed")

// Participant is one node of a live commit: a transaction manager
// with local resources, listening on a transport endpoint. A single
// participant coordinates and subordinates many concurrent
// transactions; all per-transaction state lives in a table keyed by
// transaction id.
type Participant struct {
	name string
	ep   netsim.Endpoint
	log  *wal.Log
	res  []protocol.Resource

	variant     protocol.Variant
	voteTimeout time.Duration
	ackTimeout  time.Duration
	retry       clock.RetryPolicy
	sched       clock.Scheduler
	met         *metrics.Registry
	trc         *trace.Tracer
	traceOn     bool // cached trc.Enabled(): gates trace-label formatting on the hot path
	fp          func(point string) bool
	lastAgent   bool
	retrySeed   int64
	hooks       protocol.TestHooks

	// Per-transaction state, sharded by fnv hash of the transaction id
	// (see shard.go). shardHint is the WithShards override consumed at
	// construction; 0 means GOMAXPROCS-derived.
	shards    []*txShard
	shardMask uint32
	shardHint int

	// out coalesces outbound messages per peer (see coalesce.go).
	out *coalescer

	// Deferred WAL force-policy configuration: WithAdaptiveCommit only
	// records the choice; the constructor applies it once the scheduler
	// is final, and Restarted re-applies it to the successor's fresh
	// log.
	adaptive     bool
	walMaxWindow time.Duration
	pipe         *wal.Pipeline // set when adaptive; hinted on prepare bursts

	// Forgetting (shard.go, checkpoint.go): scanning holds the decided
	// table's generations still while a checkpoint scans the log;
	// logged, keptBytes and ckptFloor drive the automatic checkpoint,
	// whose floor is set once the restart replay is done.
	scanning  atomic.Bool
	ckptMu    sync.Mutex
	ckptBusy  atomic.Bool
	ckptFloor atomic.Int64
	logged    atomic.Int64
	keptBytes atomic.Int64
	// peerHorizon is the longest retransmission horizon a peer has
	// announced to this node (protocol.Message.Horizon), in ns.
	peerHorizon atomic.Int64
	// owing counts the pins the resender sends again (awaitAcks), under
	// their shards' mutexes; resending says it runs (resendLoop).
	owing     atomic.Int64
	resending atomic.Bool

	// stopped closes at Stop, under stopMu, which background holds to
	// add to wg: nothing joins wg once Stop waits on it.
	stopped chan struct{}
	stopMu  sync.Mutex
	wg      sync.WaitGroup

	crashOnce sync.Once
	crashc    chan struct{}
}

// txState is the per-transaction entry in a participant's state
// table. The inbox fields, isCoord and collecting are guarded by the
// shard mutex; everything else belongs to the transaction's consumer
// (inbox.go), so it needs no lock of its own, and transactions never
// serialize on each other.
type txState struct {
	id string
	sh *txShard // the shard the entry hashes to

	// Input (inbox.go): inbox[head:] waits for the consumer, consuming
	// says one owns it, and wake rouses a collector waiting in next.
	inbox     []envelope
	head      int
	consuming bool
	wake      chan struct{}

	// isCoord marks a transaction this node coordinates: outcomes sent
	// to it are replies to collect, not work to apply. detached is set,
	// by the committing goroutine only, when a delegating coordinator's
	// resolver takes the consumer role over to ask its silent agent.
	// collecting marks a coordinator whose caller reads the acks after
	// they strike the pin (a PN commit: collectAcks).
	isCoord    bool
	detached   bool
	collecting bool
	// gone is set, by the consumer, once it has removed the entry from
	// the table.
	gone bool

	// Subordinate side: the Prepare's announced variant, the vote sent
	// (repeated to a duplicate Prepare) and the outcome.
	sub protocol.Sub
	// Coordinator side: the round's votes, decision and acks.
	coord protocol.Coord

	// Paxos Commit state (nil for every other variant).
	pax *protocol.PaxosLead
}

// NewParticipant wires a participant to its endpoint, log, and
// resources. The default configuration is Presumed Abort with 2s
// vote/ack timeouts, the default retry policy, and a wall clock; see
// the With* options. Call Start to begin serving protocol traffic.
func NewParticipant(name string, ep netsim.Endpoint, log *wal.Log, resources []protocol.Resource, opts ...Option) *Participant {
	p := &Participant{
		name:        name,
		ep:          ep,
		log:         log,
		res:         resources,
		variant:     protocol.VariantPA,
		voteTimeout: 2 * time.Second,
		ackTimeout:  2 * time.Second,
		retry:       clock.DefaultRetryPolicy(),
		sched:       clock.NewWall(),
		retrySeed:   seedFromName(name),
		stopped:     make(chan struct{}),
		crashc:      make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	// A tracer's enabled-ness is fixed at construction, so the check is
	// hoisted out of the hot path: the per-message trace labels
	// (Label() + string concatenation) are only materialized when
	// someone is recording them.
	p.traceOn = p.trc.Enabled()
	p.shards = newTxShards(p.shardHint)
	p.shardMask = uint32(len(p.shards) - 1)
	p.out = newCoalescer(p)
	p.applyWALPolicy()
	return p
}

// applyWALPolicy installs the adaptive pipeline on the log, with the
// participant's (final) scheduler driving its timers, when
// WithAdaptiveCommit asked for it.
func (p *Participant) applyWALPolicy() {
	if p.adaptive {
		p.pipe = wal.NewPipeline(p.sched, p.walMaxWindow)
		p.log.WithPolicy(p.pipe)
	}
}

// ShardCount reports how many shards back the per-transaction state
// table.
func (p *Participant) ShardCount() int { return len(p.shards) }

// Name returns the participant's transport name.
func (p *Participant) Name() string { return p.name }

// Log returns the participant's write-ahead log; observability and
// benchmarks read its force statistics through it.
func (p *Participant) Log() *wal.Log { return p.log }

// CoalesceDepth reports how many outbound protocol messages are
// queued in the flow coalescer awaiting the wire. Admission
// backpressure samples it as a transport congestion signal.
func (p *Participant) CoalesceDepth() int { return p.out.depth() }

// Variant returns the protocol variant this participant coordinates
// with.
func (p *Participant) Variant() protocol.Variant { return p.variant }

func seedFromName(name string) int64 { return fnvMore(fnvOffset, name) }

// fnvOffset is the basis seedFromName and retrySeedFor hash from.
const fnvOffset int64 = 1469598103934665603

// fnvMore continues an FNV-1a-style hash h over s.
func fnvMore(h int64, s string) int64 {
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// Start launches the participant's receive loop. The loop hands each
// protocol message to its transaction's inbox (inbox.go), whose one
// consumer handles that transaction's input in arrival order; distinct
// transactions run concurrently and never serialize on each other.
//
// Before serving traffic, Start replays the durable log: decided
// transactions repopulate the decided table (so inquiries after a
// restart are answered from real state, not presumption), prepared
// transactions with no decision are reinstated in doubt, and a
// PN Pending / PC Collecting record with no decision after it is
// resolved to abort — the crashed coordinator had not committed, and
// its presumption variants depend on it answering definitively. Once
// the replay is done, the participant checkpoints its own log as it
// grows (see Checkpoint).
//
// If the log cannot be read, Start returns the error and serves
// nothing: a participant that lost its memory of decided transactions
// would answer a prepared subordinate's inquiry by presumption, which
// under presumed abort contradicts a commit on disk.
func (p *Participant) Start() error {
	if p.met != nil || p.trc != nil {
		node, reg, trc := p.name, p.met, p.trc
		p.log.SetObserver(func(rec wal.Record) {
			if reg != nil {
				reg.TxLogWrite(node, rec.Tx, rec.Forced)
			}
			trc.Add(trace.Event{Node: node, Kind: trace.KindLogWrite, Tx: rec.Tx, Detail: rec.Kind, Forced: rec.Forced})
		})
	}
	if err := p.replayLog(); err != nil {
		return err
	}
	p.ckptFloor.Store(checkpointFloor(p.log.Store()))
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case pkt, ok := <-p.ep.Recv():
				if !ok {
					return
				}
				p.handle(pkt)
			case <-p.stopped:
				return
			}
		}
	}()
	return nil
}

// Stop shuts the participant down and waits for its receive loop and
// background goroutines. Coalesced messages already enqueued are
// flushed to the wire before the endpoint closes. A drainer still
// working through a transaction's input (blocked in a force, say) is
// not waited for: it finishes on its own, its sends refused, though
// its log writes may still land.
func (p *Participant) Stop() {
	p.stopMu.Lock()
	close(p.stopped)
	p.stopMu.Unlock()
	p.out.close()
	p.ep.Close()
	p.wg.Wait()
}

// background runs fn on a goroutine Stop waits for, and reports
// whether it did: once Stop has begun, it does not run fn at all.
func (p *Participant) background(fn func()) bool {
	p.stopMu.Lock()
	defer p.stopMu.Unlock()
	select {
	case <-p.stopped:
		return false
	default:
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
	return true
}

// Crash simulates a process failure: the log's volatile buffer is lost
// (synced records survive in the store), the endpoint closes, and all
// further protocol activity at this participant is suppressed. The
// participant object is dead afterwards; Restarted builds the process
// image that reboots over the same durable store.
func (p *Participant) Crash() {
	p.crashOnce.Do(func() {
		close(p.crashc)
		p.out.discard()
		p.log.Crash()
		p.ep.Close()
		p.trc.Add(trace.Event{Node: p.name, Kind: trace.KindError, Detail: "crash"})
	})
}

// Crashed reports whether Crash has been called.
func (p *Participant) Crashed() bool {
	select {
	case <-p.crashc:
		return true
	default:
		return false
	}
}

// hitFailpoint consults the injected failpoint hook (WithFailpoint)
// and crashes the participant when the hook fires at this point.
func (p *Participant) hitFailpoint(point string) bool {
	if p.fp != nil && p.fp(point) {
		p.Crash()
		return true
	}
	return false
}

// force writes a forced record through the crash and failpoint hooks:
// a chaos schedule may kill the participant immediately before or
// after the record reaches stable storage.
func (p *Participant) force(rec wal.Record) error {
	if p.fp != nil && p.hitFailpoint("before-force:"+rec.Kind) {
		return ErrCrashed
	}
	if p.Crashed() {
		return ErrCrashed
	}
	_, err := p.log.Force(rec)
	if p.fp != nil && p.hitFailpoint("after-force:"+rec.Kind) {
		return ErrCrashed
	}
	if err == nil {
		p.noteLogged(rec)
	}
	return err
}

// write writes rec as a rule asks: not at all, appended, or forced.
func (p *Participant) write(rec wal.Record, w protocol.Write) error {
	switch w {
	case protocol.Forced:
		return p.force(rec)
	case protocol.Lazy:
		return p.lazy(rec)
	}
	return nil
}

// lazy writes a non-forced record (crash-guarded; lazy writes are not
// failpoint sites — the protocol never depends on their timing).
func (p *Participant) lazy(rec wal.Record) error {
	if p.Crashed() {
		return ErrCrashed
	}
	_, err := p.log.Append(rec)
	if err == nil {
		p.noteLogged(rec)
	}
	return err
}

// Restarted returns the participant's reboot: a fresh process image
// over the same durable store, configuration, resources, tracer, and
// metrics. The caller supplies the new transport endpoint (the old one
// died with the crash), optionally overrides options, and must call
// Start on the result — which replays the durable log exactly as a
// real restart would.
func (p *Participant) Restarted(ep netsim.Endpoint, opts ...Option) *Participant {
	np := NewParticipant(p.name, ep, wal.New(p.log.Store()), p.res,
		WithVariant(p.variant),
		WithTimeout(p.voteTimeout, p.ackTimeout),
		WithRetry(p.retry),
		WithClock(p.sched),
		WithRetrySeed(p.retrySeed),
		WithShards(p.shardHint))
	np.met = p.met
	np.trc = p.trc
	np.lastAgent = p.lastAgent
	np.hooks = p.hooks
	np.adaptive = p.adaptive
	np.walMaxWindow = p.walMaxWindow
	for _, o := range opts {
		o(np)
	}
	// Re-apply with the possibly-overridden config: the successor's
	// log needs its own policy instance (the predecessor's pipeline
	// died with the crash).
	np.applyWALPolicy()
	np.traceOn = np.trc.Enabled()
	np.trc.Add(trace.Event{Node: np.name, Kind: trace.KindError, Detail: "restart"})
	return np
}

// Decided returns a snapshot of the decided table: transaction id to
// committed flag. Chaos harnesses read it to build the oracle's final
// state.
func (p *Participant) Decided() map[string]bool {
	out := make(map[string]bool)
	p.forEachDecided(func(tx string, committed bool) {
		out[tx] = committed
	})
	return out
}

// handle routes one wire packet, message by message in the order it
// carries them, to the transactions' inboxes (route).
func (p *Participant) handle(pkt protocol.Packet) {
	if p.Crashed() {
		return
	}
	// A packet carrying several Prepares is a cross-transaction force
	// burst about to hit this log (one Prepared force per yes vote).
	// Announce it so the adaptive pipeline groups the forces under one
	// physical sync even when its window has collapsed to immediate
	// mode between bursts. Logless-vote prepares are excluded: they
	// force nothing on the voter.
	if p.pipe != nil {
		prepares := 0
		for i := range pkt.Messages {
			if pkt.Messages[i].Type == protocol.MsgPrepare && pkt.Messages[i].Presume.SubPrepare(true).Prepared {
				prepares++
			}
		}
		if prepares >= 2 {
			p.pipe.Hint(prepares)
		}
	}
	for i := range pkt.Messages {
		m := &pkt.Messages[i]
		if m.Horizon > 0 {
			p.notePeerHorizon(m.Horizon)
		}
		p.received(pkt.From, m)
		p.route(pkt.From, m)
	}
	// Every inbox holds its own copy of a message, so the packet's
	// backing array can go back to the codec pool (transports hand over
	// ownership on delivery).
	protocol.PutMsgSlice(pkt.Messages)
}

// received counts and traces m, received from from.
func (p *Participant) received(from string, m *protocol.Message) {
	if p.met != nil {
		p.met.MessageReceived(p.name)
	}
	if p.traceOn {
		p.trc.Add(trace.Event{Node: p.name, Peer: from, Kind: trace.KindReceive, Tx: m.Tx, Detail: m.Label() + "(" + m.Tx + ")"})
	}
}

// recordDecision publishes the outcome of a transaction this node
// coordinates (or recovered from its log) for inquiries and duplicate
// deliveries. pinned keeps the entry until releasePin: the outcome's
// acknowledgments are outstanding, so a subordinate may still ask, and
// the presumption could answer it wrongly.
func (p *Participant) recordDecision(tx string, committed, pinned bool) {
	p.publishDecision(tx, coordDecision(committed), pinned)
}

// recordSubDecision is recordDecision for a transaction this
// node subordinates: the entry also keeps the announced presumption,
// which a duplicate outcome after the entry retires is answered under.
// Only a Paxos acceptor's entry is pinned: an acceptor that forgot what
// it accepted could let a recovery leader choose a different outcome.
func (p *Participant) recordSubDecision(st *txState, committed bool) {
	acceptor := st.pax != nil && st.pax.IsAcceptor()
	p.publishDecision(st.id, subDecision(committed, st.sub.Presume), acceptor)
}

// publishDecision writes tx's decided-table entry: pinned, or aging
// (an entry already pinned stays pinned until released). The first
// recording of each outcome is traced as the node's decision point
// (the event the oracle orders lock releases against); crashed
// participants record nothing.
func (p *Participant) publishDecision(tx string, d decision, pinned bool) {
	if p.Crashed() {
		return
	}
	sh := p.shardFor(tx)
	sh.mu.Lock()
	prev, known := sh.decidedLocked(tx)
	rotated := false
	if pe, ok := sh.pinned[tx]; ok || pinned {
		pe.d = d
		sh.pinned[tx] = pe
		delete(sh.young, tx)
		delete(sh.old, tx)
	} else {
		rotated = p.ageLocked(sh, tx, d)
	}
	sh.mu.Unlock()
	if rotated {
		p.reannounce(sh)
	}
	if known && prev.committed() == d.committed() {
		return // duplicate (e.g. retransmitted outcome)
	}
	if p.traceOn {
		dt := "abort"
		if d.committed() {
			dt = "commit"
		}
		p.trc.Add(trace.Event{Node: p.name, Kind: trace.KindDecision, Tx: tx, Detail: dt + "(" + tx + ")"})
	}
}

// send transmits a single protocol message, counting it in metrics
// and tracing it. Chaos failpoints fire on either side of the
// transmission, so a schedule can kill the participant with the
// message unsent or just sent.
//
// "Transmission" means handing the message to the per-peer coalescing
// writer: messages bound for the same peer that overlap in time ride
// one wire packet. The trace and metric side effects happen here at
// enqueue, so chaos schedules and the safety oracle observe the same
// per-message event order however the wire batches; a message that
// joined a packet another message opened is counted as piggybacked,
// the paper's flow-coalescing accounting. An after-send failpoint
// waits until the writer has handed this message, and every message
// enqueued before it to any peer, to the transport before it crashes
// the participant.
func (p *Participant) send(to string, m protocol.Message) error {
	return p.sendFlow(to, m, false)
}

// sendExtra transmits a message that the paper's flow accounting does
// not charge as a first-class flow: a retransmission, a duplicate
// answer, or a recovery notification. The cost ledger keeps these in
// a separate column so the conformance audit compares only clean
// first-transmission flows against the closed forms.
func (p *Participant) sendExtra(to string, m protocol.Message) error {
	return p.sendFlow(to, m, true)
}

func (p *Participant) sendFlow(to string, m protocol.Message, extra bool) error {
	// The failpoint labels are only materialized when a hook is
	// installed — chaos runs pay for them, production sends don't.
	if p.fp != nil && p.hitFailpoint("before-send:"+m.Type.String()) {
		return ErrCrashed
	}
	if p.Crashed() {
		return ErrCrashed
	}
	if p.traceOn {
		p.trc.Add(trace.Event{Node: p.name, Peer: to, Kind: trace.KindSend, Tx: m.Tx, Detail: m.Label() + "(" + m.Tx + ")"})
	}
	switch m.Type {
	case protocol.MsgPrepare, protocol.MsgCommit, protocol.MsgAbort:
		// The messages a coordinator resends until its deadline tell
		// the receiver how long that is (see horizon).
		m.Horizon = p.retransmitHorizon()
	}
	piggybacked, err := p.out.enqueue(to, m)
	if p.met != nil {
		// Recovery traffic is never a Table 1-4 flow, whoever sent it.
		if m.Type == protocol.MsgInquire || m.Type == protocol.MsgOutcome ||
			m.Type == protocol.MsgPaxosQuery || m.Type == protocol.MsgPaxosPromise {
			extra = true
		}
		p.met.FlowSent(p.name, m.Tx, piggybacked, extra, m.Type != protocol.MsgData)
	}
	if p.fp != nil && p.fp("after-send:"+m.Type.String()) {
		// After the send means handed to the transport, not just queued
		// for it, and so does every send before it: a crash now would
		// discard the coalescer's queues with those messages still in
		// them.
		p.out.barrier()
		p.Crash()
		return ErrCrashed
	}
	return err
}

// replied accounts for message m that the caller carries in a reply
// of its own rather than this node sending it: traced as sent, to no
// named peer, and counted as sent and piggybacked, since it takes no
// packet. extra marks a repeat, as for sendExtra.
func (p *Participant) replied(m protocol.Message, extra bool) {
	if p.traceOn {
		p.trc.Add(trace.Event{Node: p.name, Kind: trace.KindSend, Tx: m.Tx, Detail: m.Label() + "(" + m.Tx + ")"})
	}
	if p.met != nil {
		p.met.FlowSent(p.name, m.Tx, true, extra, true)
	}
}

// countRetry tallies one retransmission.
func (p *Participant) countRetry() {
	if p.met != nil {
		p.met.Retry(p.name)
	}
}
