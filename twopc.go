// Package twopc is a Go reproduction of "Two-Phase Commit
// Optimizations and Tradeoffs in the Commercial Environment"
// (Samaras, Britton, Citron, Mohan — ICDE 1993): a two-phase-commit
// engine with the paper's three protocol variants — basic 2PC,
// Presumed Abort (PA), and IBM's Presumed Nothing (PN) — and its nine
// normal-case optimizations: read-only, leave-out, last agent,
// unsolicited vote, shared log, group commit, long locks, vote
// reliable, and wait-for-outcome; plus heuristic decisions, damage
// reporting, and per-variant recovery.
//
// Two execution environments are provided. The deterministic
// discrete-event Engine reproduces the paper's exact message-flow and
// log-write counts (Tables 2-4) and drives the failure/recovery
// experiments; the live runner (NewLiveParticipant) runs the same
// wire protocol over goroutines and real TCP.
//
// # Quick start
//
//	eng := twopc.NewEngine(twopc.Config{
//		Variant: twopc.VariantPA,
//		Options: twopc.Options{ReadOnly: true},
//	})
//	a := eng.AddNode("A")
//	b := eng.AddNode("B")
//	a.AttachResource(twopc.NewStaticResource("db@A"))
//	b.AttachResource(twopc.NewStaticResource("db@B"))
//
//	tx := eng.Begin("A")
//	tx.Send("A", "B", "debit $10")
//	res := tx.Commit("A")
//	fmt.Println(res.Outcome) // committed
//
// See examples/ for transactional key-value resources (kvstore), the
// banking and travel workloads, and the TCP demo.
package twopc

import (
	"repro/client"
	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/txerr"
	"repro/internal/wal"
)

// Core protocol types, re-exported from the engine.
type (
	// Engine is the deterministic discrete-event simulator hosting
	// the commit protocol.
	Engine = core.Engine
	// Node is one system: a transaction manager, its resources, log,
	// and sessions.
	Node = core.Node
	// Tx is the script handle for one distributed transaction.
	Tx = core.Tx
	// Pending is an in-flight asynchronous commit.
	Pending = core.Pending
	// Config parameterizes an engine.
	Config = core.Config
	// Options toggles the paper's §4 optimizations.
	Options = core.Options
	// Variant selects the commit protocol: basic 2PC, PA, PN, PC,
	// Paxos Commit or the one-phase fast path.
	Variant = protocol.Variant
	// NodeID names a node.
	NodeID = protocol.NodeID
	// TxID identifies a distributed transaction.
	TxID = protocol.TxID
	// Vote is a participant's phase-one answer.
	Vote = protocol.VoteValue
	// Outcome is a transaction's fate.
	Outcome = core.Outcome
	// Result is what the commit initiator's application receives.
	Result = core.Result
	// AckStatus carries heuristic reports and recovery indications.
	AckStatus = core.AckStatus
	// HeuristicReport describes one unilateral decision.
	HeuristicReport = protocol.HeuristicReport
	// HeuristicPolicy configures when a blocked participant decides
	// unilaterally.
	HeuristicPolicy = core.HeuristicPolicy
	// Resource is the local-resource-manager participant contract.
	Resource = protocol.Resource
	// PrepareResult is a resource's vote plus attributes.
	PrepareResult = protocol.PrepareResult
	// StaticResource is a scriptable test/bench resource.
	StaticResource = protocol.StaticResource
	// NodeOption configures a node at creation.
	NodeOption = core.NodeOption
)

// Protocol variants.
const (
	VariantBaseline = protocol.VariantBaseline
	VariantPA       = protocol.VariantPA
	VariantPN       = protocol.VariantPN
	// VariantPC is the presumed-commit extension variant.
	VariantPC = protocol.VariantPC
	// VariantPaxos is the non-blocking Paxos Commit extension variant.
	VariantPaxos = protocol.VariantPaxos
	// Variant1PC is the logless one-phase fast path: the yes-vote
	// carries the redo, subordinates force nothing, and the
	// coordinator's single forced decision record is the whole tree's
	// durable state.
	Variant1PC = protocol.Variant1PC
)

// Votes.
const (
	VoteYes      = protocol.VoteYes
	VoteNo       = protocol.VoteNo
	VoteReadOnly = protocol.VoteReadOnly
)

// Outcomes.
const (
	OutcomeUnknown        = core.OutcomeUnknown
	OutcomeCommitted      = core.OutcomeCommitted
	OutcomeAborted        = core.OutcomeAborted
	OutcomeHeuristicMixed = core.OutcomeHeuristicMixed
	OutcomePending        = core.OutcomePending
)

// NewEngine returns a deterministic simulation engine; zero Config
// fields take documented defaults.
func NewEngine(cfg Config) *Engine { return core.NewEngine(cfg) }

// WithHeuristic installs a node's heuristic policy at AddNode time.
func WithHeuristic(p HeuristicPolicy) NodeOption { return core.WithHeuristic(p) }

// NewStaticResource returns a resource with a fixed vote; see the
// StaticVote, StaticReliable, and StaticLeaveOut options.
func NewStaticResource(name string, opts ...protocol.StaticOption) *StaticResource {
	return protocol.NewStaticResource(name, opts...)
}

// Static resource options, re-exported.
var (
	StaticVote     = protocol.StaticVote
	StaticReliable = protocol.StaticReliable
	StaticLeaveOut = protocol.StaticLeaveOut
)

// Write-ahead log substrate.
type (
	// Log is a write-ahead log manager with forced and non-forced
	// writes.
	Log = wal.Log
	// LogRecord is one log entry.
	LogRecord = wal.Record
	// GroupCommit coalesces concurrent force requests (§4 Group
	// Commits).
	GroupCommit = wal.GroupCommit
	// ForcePipeline is the adaptive single-writer force policy: one
	// writer goroutine absorbs concurrent forces into shared device
	// syncs, with a batching window that widens under load and
	// collapses when idle (DESIGN.md §14).
	ForcePipeline = wal.Pipeline
	// SegmentLog is durable stable storage over fixed-size
	// preallocated segments with CRC-framed records, torn-tail
	// recovery, and segment recycling.
	SegmentLog = wal.SegmentStore
)

// NewMemLog returns a Log over in-memory stable storage.
func NewMemLog() *Log { return wal.New(wal.NewMemStore()) }

// NewSegmentLog returns a Log over a preallocated segment directory
// with real fdatasync on every device flush.
func NewSegmentLog(dir string) (*Log, error) {
	store, err := wal.OpenSegmentStore(dir, wal.WithSegmentFsync(true))
	if err != nil {
		return nil, err
	}
	return wal.New(store), nil
}

// NewGroupCommit returns a group-commit sync policy; install it with
// Log.WithPolicy.
var NewGroupCommit = wal.NewGroupCommit

// NewForcePipeline returns the adaptive single-writer force policy
// (nil scheduler = wall clock); install it with Log.WithPolicy.
var NewForcePipeline = wal.NewPipeline

// Transactional key-value resource manager.
type (
	// KVStore is a transactional key-value store implementing
	// Resource: strict 2PL, WAL durability, heuristic completion, and
	// crash recovery.
	KVStore = kvstore.Store
)

// NewKVStore returns a store named name logging to log. A nil log
// gets a fresh in-memory one. Attach the returned store to a Node and
// issue Get/Put/Delete against Tx.ID().
func NewKVStore(name string, log *Log, eng *Engine, opts ...kvstore.Option) *KVStore {
	if log == nil {
		log = NewMemLog()
	}
	var clk clock.Clock
	if eng != nil {
		clk = eng.Clock()
	} else {
		clk = clock.NewWall()
	}
	return kvstore.New(name, log, clk, opts...)
}

// KVStore options, re-exported.
var (
	KVReliable      = kvstore.WithReliable
	KVSharedLog     = kvstore.WithSharedLog
	KVOKToLeaveOut  = kvstore.WithOKToLeaveOut
	KVLockWait      = kvstore.WithLockWait
	KVReadOnlyVotes = kvstore.WithReadOnlyVotes
)

// RecoverKVStore rebuilds a store from the durable records of log, as
// a restart after a crash would.
func RecoverKVStore(name string, log *Log, eng *Engine, opts ...kvstore.Option) (*KVStore, error) {
	var clk clock.Clock
	if eng != nil {
		clk = eng.Clock()
	} else {
		clk = clock.NewWall()
	}
	return kvstore.Recover(name, log, clk, opts...)
}

// Live (non-simulated) execution over real transports.
type (
	// LiveParticipant runs the commit protocol with goroutines over a
	// netsim transport, pipelining many concurrent transactions; all
	// six variants are supported via LiveWithVariant.
	LiveParticipant = live.Participant
	// LiveOption configures a live participant at construction.
	LiveOption = live.Option
	// LiveRetryPolicy governs retransmission backoff for votes,
	// outcome delivery, and recovery inquiries.
	LiveRetryPolicy = clock.RetryPolicy
	// LiveOutcome is a live commit's result.
	LiveOutcome = live.Outcome
	// ChanNetwork is an in-process packet network with latency, loss,
	// and partitions.
	ChanNetwork = netsim.ChanNetwork
	// TCPEndpoint is a real TCP transport endpoint.
	TCPEndpoint = netsim.TCPEndpoint
)

// Live commit outcomes.
const (
	LiveCommitted = live.Committed
	LiveAborted   = live.Aborted
	LiveInDoubt   = live.InDoubt
)

// Sentinel errors shared by the simulator and the live runtime
// (match with errors.Is). The simulator surfaces them on Result.Err;
// the live runtime returns them from Commit and RecoverInDoubt.
var (
	// ErrTimeout: votes, acks, or recovery answers did not arrive in
	// time.
	ErrTimeout = txerr.ErrTimeout
	// ErrInDoubt: a transaction's outcome is not known everywhere;
	// recovery owns it.
	ErrInDoubt = txerr.ErrInDoubt
	// ErrHeuristicDamage: a unilateral heuristic decision disagreed
	// with the final outcome.
	ErrHeuristicDamage = txerr.ErrHeuristicDamage
)

// Live participant options, re-exported.
var (
	// LiveWithVariant selects the coordinating protocol variant.
	LiveWithVariant = live.WithVariant
	// LiveWithRetry installs the retransmission policy.
	LiveWithRetry = live.WithRetry
	// LiveWithTimeout sets the vote- and ack-collection deadlines.
	LiveWithTimeout = live.WithTimeout
	// LiveWithMetrics wires a metrics registry into the live path.
	LiveWithMetrics = live.WithMetrics
	// LiveWithClock substitutes a scheduler (tests use clock.Virtual).
	LiveWithClock = live.WithClock
	// LiveWithLastAgent enables the §4 Last Agent delegation.
	LiveWithLastAgent = live.WithLastAgent
	// LiveWithAdaptiveCommit installs the adaptive single-writer
	// force pipeline on the participant's log (DESIGN.md §14): the
	// batching window widens toward maxWindow under load and
	// collapses when idle.
	LiveWithAdaptiveCommit = live.WithAdaptiveCommit
	// LiveWithShards overrides the per-transaction state table's shard
	// count (default: GOMAXPROCS-derived).
	LiveWithShards = live.WithShards
)

// Metrics instrumentation, re-exported so external callers can use
// LiveWithMetrics (internal packages are not importable).
type (
	// Metrics is a registry of per-node protocol counters, outcome
	// tallies, and commit latencies.
	Metrics = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, with
	// latency percentiles.
	MetricsSnapshot = metrics.Snapshot
	// MetricsCounters is one node's counter block.
	MetricsCounters = metrics.Counters
	// ChanOption configures a ChanNetwork.
	ChanOption = netsim.ChanOption
)

// NewMetrics returns an empty metrics registry.
var NewMetrics = metrics.New

// ChanNetwork options, re-exported.
var (
	// ChanWithLatency adds a fixed per-packet delivery delay.
	ChanWithLatency = netsim.WithLatency
	// ChanWithLoss drops packets with the given probability (seeded).
	ChanWithLoss = netsim.WithLoss
)

// NewChanNetwork returns an in-process network.
var NewChanNetwork = netsim.NewChanNetwork

// ListenTCP starts a TCP transport endpoint.
var ListenTCP = netsim.ListenTCP

// NewLiveParticipant wires a live participant to a transport
// endpoint.
var NewLiveParticipant = live.NewParticipant

// Versioned HTTP transaction API (v1): the typed wire surface spoken
// by twopcd fleets, twopcrouter, and the shard-aware client.
type (
	// Op is one typed key operation (get, put, delete) within a
	// v1 transaction.
	Op = api.Op
	// APICommitRequest is the POST /v1/commit body.
	APICommitRequest = api.CommitRequest
	// APICommitResponse reports a v1 transaction's outcome,
	// participants, reads, latency, and analytic cost.
	APICommitResponse = api.CommitResponse
	// APIShardMap is the wire form of a fleet's key-ownership map.
	APIShardMap = api.ShardMap
	// APIError is the machine-readable error body of non-2xx v1
	// responses (client.APIError wraps it with the HTTP status).
	APIError = api.Error
	// Client is the shard-aware v1 API client.
	Client = client.Client
	// ClientOption configures a Client.
	ClientOption = client.Option
	// ClientError is a non-2xx v1 response seen by the client.
	ClientError = client.APIError
)

// NewClient returns a v1 API client for the fleet behind baseURL (a
// twopcd daemon or a twopcrouter).
var NewClient = client.New

// Client options, re-exported.
var (
	// ClientWithVariant requests a protocol variant per transaction.
	ClientWithVariant = client.WithVariant
	// ClientWithTimeout bounds each HTTP request.
	ClientWithTimeout = client.WithTimeout
	// ClientWithRetry retries sheds and transport failures on the live
	// runtime's backoff schedule.
	ClientWithRetry = client.WithRetry
	// ClientWithHTTPClient substitutes the HTTP transport.
	ClientWithHTTPClient = client.WithHTTPClient
	// ClientWithShardRouting routes each transaction client-side to
	// the owner of its first key, from a fetched /v1/shards map.
	ClientWithShardRouting = client.WithShardRouting
)

// Typed-op builders for v1 transactions.
var (
	// OpGet reads a key within a transaction.
	OpGet = client.Get
	// OpPut writes key=value at commit.
	OpPut = client.Put
	// OpDel deletes a key at commit.
	OpDel = client.Del
)
