// Package server is the serving daemon behind cmd/twopcd: a live 2PC
// participant on a real TCP listener, wrapped in an observability
// plane — a Prometheus-style /metrics endpoint, /healthz, /varz,
// /auditz, /tracez, and net/http/pprof — plus an admission limit and
// graceful drain.
//
// The same binary serves both roles. A coordinator daemon accepts
// commit requests over HTTP (POST /v1/commit) and drives the protocol
// over TCP against subordinate daemons, which run the participant's
// receive loop and need no HTTP surface beyond observability.
//
// The daemon continuously audits itself: a background loop drains
// closed transactions from the metrics cost ledger and checks them
// against the analytic closed forms (internal/audit). A violation —
// the runtime spending more flows or forced writes than the paper's
// tables allow — is logged loudly and latches /healthz red, on the
// view that an optimized commit path silently losing its optimization
// is an outage in the making.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/kvstore"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config assembles a daemon. Zero values take documented defaults.
type Config struct {
	// Name is the participant name other daemons address this one by.
	Name string
	// ListenProto is the protocol (TCP) listen address, e.g.
	// "127.0.0.1:0". The OS-assigned address is available from
	// ProtoAddr after New.
	ListenProto string
	// ListenHTTP is the observability/admin listen address.
	ListenHTTP string
	// Peers maps participant names to protocol addresses. More can be
	// added after startup with RegisterPeer (ports are usually
	// OS-assigned, so wiring happens once every daemon is listening).
	Peers map[string]string
	// Variant is the default protocol variant for /v1/commit
	// requests; requests may override it per transaction.
	Variant protocol.Variant
	// MaxInflight bounds concurrently admitted commits; excess
	// requests are shed with 503. Default 256.
	MaxInflight int
	// AdmitRate is the admission token-bucket refill rate in
	// tokens/second (a read-only transaction costs one token, a
	// read-write one token per participant). 0 disables rate admission:
	// only MaxInflight bounds load.
	AdmitRate float64
	// AdmitBurst is the token bucket's capacity. Default 256.
	AdmitBurst int
	// Backpressure enables the adaptive controller: the admit rate
	// tracks live overload signals (WAL force-latency P99, lock-manager
	// wait-queue depth, coalescer queue depth) between AdmitRate/20 and
	// AdmitRate. Requires AdmitRate > 0.
	Backpressure bool
	// BackpressureInterval is the controller's sample period. Default
	// 100ms.
	BackpressureInterval time.Duration
	// AuditInterval is the conformance-audit period. Default 1s;
	// negative disables the loop (tests drive AuditNow directly).
	AuditInterval time.Duration
	// TraceRing is the /tracez ring capacity. Default 4096; negative
	// disables tracing.
	TraceRing int
	// Log is the participant's WAL; nil means in-memory.
	Log *wal.Log
	// LiveOptions are appended to the participant's construction
	// options (timeouts, retry policy, group commit, ...).
	LiveOptions []live.Option
	// ShardMap is the fleet key-ownership spec ("hash:S1,S2,S3" or
	// "range:S1=g,S2=t,S3="). Empty means this daemon owns the whole
	// keyspace: /v1/commit ops all stage locally.
	ShardMap string
	// PeerHTTP maps fleet member names to their HTTP base URLs, the
	// data plane /v1/stage rides on. More can be added after startup
	// with RegisterPeerHTTP.
	PeerHTTP map[string]string
	// StageTimeout bounds lock acquisition while staging one shard's
	// slice of a transaction's operations, and with a second's slack a
	// whole /v1/stage call, dial included.
	// Default 2s.
	StageTimeout time.Duration
	// AdvertiseHTTP overrides the HTTP base URL this daemon reports
	// for itself in /v1/shards (defaults to its bound listener).
	AdvertiseHTTP string
}

// ErrOverloaded is the admission error once a limit is reached; a
// /v1/commit shed by it answers 503 overloaded.
var ErrOverloaded = fmt.Errorf("server: admission limit reached")

// ErrDraining is the admission error once Drain has begun; a
// /v1/commit refused by it answers 503 draining.
var ErrDraining = fmt.Errorf("server: draining")

// ShedError reports one shed admission decision: which priority class
// was refused, by which limit, and when retrying is worthwhile. It
// matches ErrOverloaded under errors.Is so existing 503 mappings hold.
type ShedError struct {
	// Class is the transaction's shed-priority class.
	Class admission.Class
	// Reason is the limit that shed it: "rate" (token bucket) or
	// "inflight" (concurrency cap).
	Reason string
	// RetryAfter hints how long until the same request would admit.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: shed %s transaction (%s limit, retry after %s)",
		e.Class, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for every shed.
func (e *ShedError) Is(target error) bool { return target == ErrOverloaded }

// shedRetryInflight is the retry hint for inflight-cap sheds, where no
// refill rate predicts slot turnover.
const shedRetryInflight = 250 * time.Millisecond

// Server is one running daemon.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	trc   *trace.Tracer
	part  *live.Participant
	ep    *netsim.TCPEndpoint
	store *kvstore.Store   // this shard's slice of the keyspace
	smap  *router.ShardMap // nil: this daemon owns every key
	httpc *http.Client     // fleet data-plane client (/v1/stage)

	httpLn  net.Listener
	httpSrv *http.Server

	start   time.Time
	limiter *admission.Limiter
	ctrl    *admission.Controller // nil unless Backpressure

	// shedInflight counts per-class sheds at the concurrency cap; the
	// limiter itself counts rate sheds.
	shedInflight [admission.NumClasses]atomic.Uint64

	txPrefix  string        // generated tx ids: "name.startnanos:"
	txSeq     atomic.Uint64 // generated-tx-id counter
	stagedOps atomic.Int64  // operations staged on this shard

	mu        sync.Mutex
	draining  bool
	inflight  int
	idle      chan struct{} // closed when draining and inflight hits 0
	auditRep  audit.Report  // accumulated totals; violations truncated
	auditTxs  int           // transactions audited
	costAgg   map[metrics.AggregateCostKey]metrics.CostCounters
	costNodes map[metrics.AggregateCostKey]int
	peerHTTP  map[string]httpPeer // fleet member name -> its HTTP surface

	stopc  chan struct{}
	stopMu sync.Once
	wg     sync.WaitGroup
}

// maxKeptViolations bounds the violations retained for /auditz; the
// total count keeps climbing regardless.
const maxKeptViolations = 64

// New builds and starts a daemon: both listeners bound, participant
// receive loop running, audit loop ticking. Callers wire peers with
// RegisterPeer once every daemon in the topology is up. New fails, and
// nothing serves, if the participant cannot read its log back
// (live.Participant.Start).
func New(cfg Config) (*Server, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: config needs a Name")
	}
	if cfg.ListenProto == "" {
		cfg.ListenProto = "127.0.0.1:0"
	}
	if cfg.ListenHTTP == "" {
		cfg.ListenHTTP = "127.0.0.1:0"
	}
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 256
	}
	if cfg.AdmitBurst < 1 {
		cfg.AdmitBurst = 256
	}
	if cfg.AuditInterval == 0 {
		cfg.AuditInterval = time.Second
	}
	if cfg.TraceRing == 0 {
		cfg.TraceRing = 4096
	}
	if cfg.Log == nil {
		cfg.Log = wal.New(wal.NewMemStore())
	}
	if cfg.StageTimeout <= 0 {
		cfg.StageTimeout = 2 * time.Second
	}
	var smap *router.ShardMap
	if cfg.ShardMap != "" {
		var err error
		smap, err = router.Parse(cfg.ShardMap)
		if err != nil {
			return nil, err
		}
	}

	ep, err := netsim.ListenTCP(cfg.Name, cfg.ListenProto)
	if err != nil {
		return nil, err
	}
	httpLn, err := net.Listen("tcp", cfg.ListenHTTP)
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("server: http listen %s: %w", cfg.ListenHTTP, err)
	}
	for name, addr := range cfg.Peers {
		ep.Register(name, addr)
	}

	reg := metrics.New()
	var trc *trace.Tracer
	if cfg.TraceRing > 0 {
		trc = trace.NewRing(cfg.TraceRing)
	}
	opts := []live.Option{
		live.WithVariant(cfg.Variant),
		live.WithMetrics(reg),
	}
	if trc != nil {
		opts = append(opts, live.WithTrace(trc))
	}
	opts = append(opts, cfg.LiveOptions...)

	// The shard's kvstore keeps its own WAL, deliberately distinct
	// from the participant's observed protocol log: resource-manager
	// record writes are database spend, not protocol spend, and must
	// not enter the cost ledger the conformance audit checks against
	// the paper's closed forms. The store is the daemon's only
	// resource, so the daemon votes what it votes: a shard that staged
	// no put or delete votes read-only, logs nothing and leaves phase
	// two (§4 Read Only).
	store := kvstore.New("kv@"+cfg.Name, wal.New(wal.NewMemStore()), clock.NewWall(),
		kvstore.WithLockWait(cfg.StageTimeout))
	part := live.NewParticipant(cfg.Name, ep, cfg.Log, []protocol.Resource{store}, opts...)

	start := time.Now()
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		trc:       trc,
		part:      part,
		ep:        ep,
		store:     store,
		smap:      smap,
		httpc:     &http.Client{Transport: newStageTransport(cfg.MaxInflight, cfg.StageTimeout+time.Second)},
		httpLn:    httpLn,
		start:     start,
		txPrefix:  cfg.Name + "." + strconv.FormatInt(start.UnixNano(), 10) + ":",
		idle:      make(chan struct{}),
		costAgg:   make(map[metrics.AggregateCostKey]metrics.CostCounters),
		costNodes: make(map[metrics.AggregateCostKey]int),
		peerHTTP:  make(map[string]httpPeer),
		stopc:     make(chan struct{}),
	}
	// The limiter always exists — with AdmitRate 0 it admits everything
	// but still labels traffic by class, so /metrics reads the same
	// whether rate admission is on or off.
	s.limiter = admission.NewLimiter(clock.NewWall(), cfg.AdmitRate, cfg.AdmitBurst)
	if cfg.Backpressure && cfg.AdmitRate > 0 {
		s.ctrl = admission.NewController(s.limiter, clock.NewWall(), s.sampleSignals(),
			admission.ControllerConfig{MaxRate: cfg.AdmitRate, Interval: cfg.BackpressureInterval})
	}
	for name, u := range cfg.PeerHTTP {
		s.peerHTTP[name] = newHTTPPeer(u)
	}
	s.httpSrv = &http.Server{Handler: s.mux()}

	if err := part.Start(); err != nil {
		// A daemon that cannot read its log would answer inquiries by
		// presumption against decisions on disk: refuse to serve.
		part.Stop()
		httpLn.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	if s.ctrl != nil {
		s.ctrl.Start()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.Serve(httpLn)
	}()
	if cfg.AuditInterval > 0 {
		s.wg.Add(1)
		go s.auditLoop()
	}
	return s, nil
}

// ProtoAddr is the protocol listener's bound address.
func (s *Server) ProtoAddr() string { return s.ep.Addr() }

// HTTPAddr is the observability listener's bound address.
func (s *Server) HTTPAddr() string { return s.httpLn.Addr().String() }

// RegisterPeer tells the protocol endpoint where to dial for a peer.
func (s *Server) RegisterPeer(name, addr string) {
	s.ep.Register(name, addr)
}

// RegisterPeerHTTP tells the data plane where a fleet member's HTTP
// surface (/v1/stage, /v1/commit) lives.
func (s *Server) RegisterPeerHTTP(name, baseURL string) {
	p := newHTTPPeer(baseURL)
	s.mu.Lock()
	s.peerHTTP[name] = p
	s.mu.Unlock()
}

// Store exposes the daemon's kvstore shard (tests read committed state
// directly).
func (s *Server) Store() *kvstore.Store { return s.store }

// nextTxID generates a daemon-unique transaction id,
// "name.startnanos:seq", allocating only the result. It is a
// protocol.TxID's own form (origin "name.startnanos", sequence seq), so
// the kvstore's lock owner and log records name the transaction as the
// protocol log does.
func (s *Server) nextTxID() string {
	var buf [64]byte
	return string(strconv.AppendUint(append(buf[:0], s.txPrefix...), s.txSeq.Add(1), 10))
}

// peerHTTPOf resolves a fleet member's HTTP surface.
func (s *Server) peerHTTPOf(name string) (httpPeer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peerHTTP[name]
	return p, ok
}

// selfHTTPURL is the base URL this daemon advertises for itself.
func (s *Server) selfHTTPURL() string {
	if s.cfg.AdvertiseHTTP != "" {
		return s.cfg.AdvertiseHTTP
	}
	return "http://" + s.HTTPAddr()
}

// countStagedOps accounts operations staged on this shard.
func (s *Server) countStagedOps(n int) { s.stagedOps.Add(int64(n)) }

// Registry exposes the daemon's metrics registry (tests and embedding
// harnesses read it directly; external observers scrape /metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Participant exposes the underlying live participant.
func (s *Server) Participant() *live.Participant { return s.part }

// AdmissionStats snapshots the admission limiter (tests and embedding
// harnesses; external observers scrape /metrics).
func (s *Server) AdmissionStats() admission.Stats { return s.limiter.Stats() }

// sampleSignals builds the backpressure controller's signal closure.
// The WAL force-latency P99 is windowed: each sample diffs the
// lifetime bucket histogram against the previous sample's snapshot,
// so the controller reacts to the last interval, not history.
func (s *Server) sampleSignals() func() admission.Signal {
	prev := s.cfg.Log.ForceLatencyBuckets()
	return func() admission.Signal {
		cur := s.cfg.Log.ForceLatencyBuckets()
		window := cur.Delta(prev)
		prev = cur
		return admission.Signal{
			WALForceP99:   window.Summary().P99,
			LockWaiters:   s.store.Locks().TotalWaiters(),
			CoalesceDepth: s.part.CoalesceDepth(),
		}
	}
}

// acquire admits one transaction of the given class and token cost:
// ErrDraining during drain, then the token bucket (priority-aware
// rate), then the inflight cap. Sheds happen before any protocol or
// staging work, so a shed transaction leaves no cost-ledger entry and
// the conformance audit stays exact under overload.
func (s *Server) acquire(class admission.Class, cost float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if ok, retry := s.limiter.Admit(class, cost); !ok {
		return &ShedError{Class: class, Reason: "rate", RetryAfter: retry}
	}
	if s.inflight >= s.cfg.MaxInflight {
		s.shedInflight[class].Add(1)
		return &ShedError{Class: class, Reason: "inflight", RetryAfter: shedRetryInflight}
	}
	s.inflight++
	return nil
}

// release returns an admission slot and signals drain idleness.
func (s *Server) release() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		select {
		case <-s.idle:
		default:
			close(s.idle)
		}
	}
	s.mu.Unlock()
}

// Drain stops admitting new commits and waits for inflight ones to
// finish (bounded by ctx), then runs a final conformance audit over
// whatever closed. The HTTP plane stays up throughout so drains are
// observable; Close tears everything down.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with commits inflight: %w", ctx.Err())
	}
	s.AuditNow()
	return nil
}

// Close shuts the daemon down: audit loop, HTTP server, participant,
// and protocol endpoint.
func (s *Server) Close() error {
	s.stopMu.Do(func() { close(s.stopc) })
	if s.ctrl != nil {
		s.ctrl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx)
	s.httpc.CloseIdleConnections()
	s.part.Stop()
	_ = s.ep.Close()
	s.wg.Wait()
	return nil
}

// auditLoop periodically drains the cost ledger and conformance-checks
// what closed.
func (s *Server) auditLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AuditInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.AuditNow()
		case <-s.stopc:
			return
		}
	}
}

// AuditNow drains closed transactions from the cost ledger, audits
// them against the analytic closed forms, and folds the result into
// the daemon's accumulated report. Violations are logged and latch
// /healthz red.
func (s *Server) AuditNow() audit.Report {
	views := s.reg.CostDrainClosed()
	rep := audit.Conformance(views)
	agg := metrics.AggregateCosts(views)

	s.mu.Lock()
	s.auditTxs += len(views)
	s.auditRep.Checked += rep.Checked
	s.auditRep.Exact += rep.Exact
	s.auditRep.Skipped += rep.Skipped
	room := maxKeptViolations - len(s.auditRep.Violations)
	for i, v := range rep.Violations {
		if i >= room {
			break
		}
		s.auditRep.Violations = append(s.auditRep.Violations, v)
	}
	for k, b := range agg {
		s.costAgg[k] = s.costAgg[k].Add(b.Counters)
		s.costNodes[k] += b.Nodes
	}
	total := len(s.auditRep.Violations)
	s.mu.Unlock()

	if !rep.OK() {
		log.Printf("server %s: CONFORMANCE AUDIT FAILED (%d new, %d total): %s",
			s.cfg.Name, len(rep.Violations), total, rep)
	}
	return rep
}

// AuditReport returns the accumulated audit totals and the audited
// transaction count.
func (s *Server) AuditReport() (audit.Report, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.auditRep
	rep.Violations = append([]audit.Violation(nil), s.auditRep.Violations...)
	return rep, s.auditTxs
}

// Healthy reports whether the daemon serves traffic with a clean
// audit record.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && len(s.auditRep.Violations) == 0
}

// mux assembles the observability plane.
func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/varz", s.handleVarz)
	m.HandleFunc("/metrics", s.handleMetrics)
	m.HandleFunc("/auditz", s.handleAuditz)
	m.HandleFunc("/tracez", s.handleTracez)
	m.HandleFunc("/v1/commit", s.handleV1Commit)
	m.HandleFunc("/v1/shards", s.handleShards)
	m.HandleFunc("/v1/stage", s.handleStage)
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining, violations := s.draining, len(s.auditRep.Violations)
	s.mu.Unlock()
	switch {
	case violations > 0:
		http.Error(w, fmt.Sprintf("audit: %d conformance violations", violations), http.StatusInternalServerError)
	case draining:
		http.Error(w, "draining", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.Snapshot()
	inDoubt := 0
	for _, c := range snap.Nodes {
		inDoubt += c.InDoubt
	}
	shardMap := ""
	if s.smap != nil {
		shardMap = s.smap.String()
	}
	ws := s.cfg.Log.Stats()
	fl := s.cfg.Log.ForceLatency()
	adm := s.limiter.Stats()
	admitted, shed := map[string]uint64{}, map[string]map[string]uint64{}
	for c := admission.Class(0); c < admission.NumClasses; c++ {
		admitted[c.String()] = adm.PerClass[c].Admitted
		shed[c.String()] = map[string]uint64{
			"rate":     adm.PerClass[c].Shed,
			"inflight": s.shedInflight[c].Load(),
		}
	}
	s.mu.Lock()
	v := map[string]any{
		"name":             s.cfg.Name,
		"variant":          s.cfg.Variant.String(),
		"shard_map":        shardMap,
		"staged_ops":       s.stagedOps.Load(),
		"uptime_seconds":   time.Since(s.start).Seconds(),
		"inflight":         s.inflight,
		"max_inflight":     s.cfg.MaxInflight,
		"admit_rate":       adm.Rate,
		"admit_burst":      adm.Burst,
		"admit_tokens":     adm.Tokens,
		"admitted":         admitted,
		"shed":             shed,
		"draining":         s.draining,
		"in_doubt":         inDoubt,
		"ledger_open":      s.reg.CostLedgerSize(),
		"audit_txs":        s.auditTxs,
		"audit_checked":    s.auditRep.Checked,
		"audit_exact":      s.auditRep.Exact,
		"audit_violations": len(s.auditRep.Violations),
		"outcomes":         snap.Outcomes,
		"wal_appends":      ws.Appends,
		"wal_forces":       ws.Forces,
		"wal_syncs":        ws.Syncs,
		// syncs/force is the measured group-commit amortization: 1.0
		// means every force paid its own sync, 1/N means batches of N.
		"wal_syncs_per_force": ws.SyncsPerForce(),
		"wal_force_p50_us":    fl.P50.Microseconds(),
		"wal_force_p99_us":    fl.P99.Microseconds(),
		"wal_force_max_us":    fl.Max.Microseconds(),
	}
	s.mu.Unlock()
	if s.ctrl != nil {
		cs := s.ctrl.Snapshot()
		v["backpressure"] = map[string]any{
			"rate":           cs.Rate,
			"ticks":          cs.Ticks,
			"overload_ticks": cs.OverloadTicks,
			"decreases":      cs.Decreases,
			"increases":      cs.Increases,
			"last_signal":    cs.LastSignal.String(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleAuditz(w http.ResponseWriter, _ *http.Request) {
	rep, txs := s.AuditReport()
	fmt.Fprintf(w, "audited %d transactions\n%s\n", txs, rep)
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.trc == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	events := s.trc.Events()
	if tx := r.URL.Query().Get("tx"); tx != "" {
		kept := events[:0]
		for _, e := range events {
			if e.Tx == tx {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	fmt.Fprintf(w, "%d events (ring)\n", len(events))
	for _, e := range events {
		fmt.Fprintln(w, e.String())
	}
}

// ParseVariant maps a variant name (the protocol.Variant String forms and
// their aliases, case-insensitive) to its value; see
// protocol.ParseVariant.
func ParseVariant(name string) (protocol.Variant, bool) { return protocol.ParseVariant(name) }

// handleMetrics renders the registry in the Prometheus text exposition
// format, hand-rolled — the repo takes no dependencies.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.Snapshot()
	var b strings.Builder

	nodes := make([]string, 0, len(snap.Nodes))
	for n := range snap.Nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	counter := func(name, help string, render func(*strings.Builder)) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		render(&b)
	}
	counter("twopc_messages_sent_total", "Protocol messages handed to the transport.", func(b *strings.Builder) {
		for _, n := range nodes {
			fmt.Fprintf(b, "twopc_messages_sent_total{node=%q} %d\n", n, snap.Nodes[n].MessagesSent)
		}
	})
	counter("twopc_packets_sent_total", "Wire packets (piggybacked messages ride for free).", func(b *strings.Builder) {
		for _, n := range nodes {
			fmt.Fprintf(b, "twopc_packets_sent_total{node=%q} %d\n", n, snap.Nodes[n].PacketsSent)
		}
	})
	counter("twopc_log_writes_total", "Log records written.", func(b *strings.Builder) {
		for _, n := range nodes {
			fmt.Fprintf(b, "twopc_log_writes_total{node=%q,forced=\"false\"} %d\n", n, snap.Nodes[n].LogWrites-snap.Nodes[n].ForcedWrites)
			fmt.Fprintf(b, "twopc_log_writes_total{node=%q,forced=\"true\"} %d\n", n, snap.Nodes[n].ForcedWrites)
		}
	})
	counter("twopc_retries_total", "Protocol retransmissions.", func(b *strings.Builder) {
		for _, n := range nodes {
			fmt.Fprintf(b, "twopc_retries_total{node=%q} %d\n", n, snap.Nodes[n].Retries)
		}
	})
	counter("twopc_in_doubt_total", "Transactions that entered the in-doubt window.", func(b *strings.Builder) {
		for _, n := range nodes {
			fmt.Fprintf(b, "twopc_in_doubt_total{node=%q} %d\n", n, snap.Nodes[n].InDoubt)
		}
	})
	counter("twopc_outcomes_total", "Transaction outcomes at this coordinator.", func(b *strings.Builder) {
		outs := make([]string, 0, len(snap.Outcomes))
		for o := range snap.Outcomes {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		for _, o := range outs {
			fmt.Fprintf(b, "twopc_outcomes_total{outcome=%q} %d\n", o, snap.Outcomes[o])
		}
	})

	// Per-variant cost accounting: accumulated closed transactions
	// plus whatever is still open in the ledger.
	s.mu.Lock()
	agg := make(map[metrics.AggregateCostKey]metrics.CostCounters, len(s.costAgg))
	nodesPer := make(map[metrics.AggregateCostKey]int, len(s.costNodes))
	for k, c := range s.costAgg {
		agg[k] = c
		nodesPer[k] = s.costNodes[k]
	}
	auditChecked, auditExact := s.auditRep.Checked, s.auditRep.Exact
	auditViolations := len(s.auditRep.Violations)
	auditTxs := s.auditTxs
	inflight := s.inflight
	s.mu.Unlock()
	for k, bkt := range metrics.AggregateCosts(s.reg.CostSnapshot()) {
		agg[k] = agg[k].Add(bkt.Counters)
		nodesPer[k] += bkt.Nodes
	}
	keys := make([]metrics.AggregateCostKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.Variant != c.Variant {
			return a.Variant < c.Variant
		}
		if a.Role != c.Role {
			return a.Role < c.Role
		}
		return a.Outcome < c.Outcome
	})
	counter("twopc_cost_total", "Per-variant protocol spend by role and outcome (paper Tables 2-4 units).", func(b *strings.Builder) {
		for _, k := range keys {
			c := agg[k]
			base := fmt.Sprintf("variant=%q,role=%q,outcome=%q", k.Variant, k.Role, k.Outcome)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"flows\"} %d\n", base, c.Flows)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"extra_flows\"} %d\n", base, c.Extra)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"piggybacked\"} %d\n", base, c.Piggybacked)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"forced_writes\"} %d\n", base, c.Forced)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"nonforced_writes\"} %d\n", base, c.NonForced)
			fmt.Fprintf(b, "twopc_cost_total{%s,kind=\"node_entries\"} %d\n", base, nodesPer[k])
		}
	})
	counter("twopc_audit_checked_total", "Node-entries conformance-checked against the analytic model.", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_audit_checked_total %d\n", auditChecked)
	})
	counter("twopc_audit_exact_total", "Node-entries that matched a closed form exactly.", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_audit_exact_total %d\n", auditExact)
	})
	counter("twopc_audit_violations_total", "Conformance violations (runtime spent more than the model).", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_audit_violations_total %d\n", auditViolations)
	})
	counter("twopc_audit_transactions_total", "Closed transactions consumed by the audit.", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_audit_transactions_total %d\n", auditTxs)
	})

	counter("twopc_stage_ops_total", "Typed operations staged on this shard's kvstore.", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_stage_ops_total %d\n", s.stagedOps.Load())
	})

	fmt.Fprintf(&b, "# HELP twopc_inflight Commits currently admitted.\n# TYPE twopc_inflight gauge\ntwopc_inflight %d\n", inflight)
	fmt.Fprintf(&b, "# HELP twopc_ledger_open Cost-ledger entries not yet closed.\n# TYPE twopc_ledger_open gauge\ntwopc_ledger_open %d\n", s.reg.CostLedgerSize())

	adm := s.limiter.Stats()
	counter("twopc_admission_admitted_total", "Transactions admitted, by shed-priority class.", func(b *strings.Builder) {
		for c := admission.Class(0); c < admission.NumClasses; c++ {
			fmt.Fprintf(b, "twopc_admission_admitted_total{class=%q} %d\n", c, adm.PerClass[c].Admitted)
		}
	})
	counter("twopc_admission_shed_total", "Transactions shed, by class and limit.", func(b *strings.Builder) {
		for c := admission.Class(0); c < admission.NumClasses; c++ {
			fmt.Fprintf(b, "twopc_admission_shed_total{class=%q,reason=\"rate\"} %d\n", c, adm.PerClass[c].Shed)
			fmt.Fprintf(b, "twopc_admission_shed_total{class=%q,reason=\"inflight\"} %d\n", c, s.shedInflight[c].Load())
		}
	})
	fmt.Fprintf(&b, "# HELP twopc_admission_rate Current admit rate, tokens/sec (0 = unlimited).\n# TYPE twopc_admission_rate gauge\ntwopc_admission_rate %g\n", adm.Rate)
	fmt.Fprintf(&b, "# HELP twopc_admission_tokens Admission tokens available.\n# TYPE twopc_admission_tokens gauge\ntwopc_admission_tokens %g\n", adm.Tokens)
	if s.ctrl != nil {
		cs := s.ctrl.Snapshot()
		counter("twopc_backpressure_ticks_total", "Backpressure controller ticks (overloaded ticks saw a signal over target).", func(b *strings.Builder) {
			fmt.Fprintf(b, "twopc_backpressure_ticks_total{state=\"healthy\"} %d\n", cs.Ticks-cs.OverloadTicks)
			fmt.Fprintf(b, "twopc_backpressure_ticks_total{state=\"overloaded\"} %d\n", cs.OverloadTicks)
		})
	}

	ws := s.cfg.Log.Stats()
	counter("twopc_wal_forces_total", "Logical WAL force requests (the paper's forced writes).", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_wal_forces_total %d\n", ws.Forces)
	})
	counter("twopc_wal_syncs_total", "Physical WAL syncs; syncs/forces is the group-commit amortization.", func(b *strings.Builder) {
		fmt.Fprintf(b, "twopc_wal_syncs_total %d\n", ws.Syncs)
	})
	wfl := s.cfg.Log.ForceLatency()
	fmt.Fprintf(&b, "# HELP twopc_wal_force_latency_seconds WAL force latency distribution (power-of-two bucket upper bounds).\n# TYPE twopc_wal_force_latency_seconds summary\n")
	fmt.Fprintf(&b, "twopc_wal_force_latency_seconds{quantile=\"0.5\"} %g\n", wfl.P50.Seconds())
	fmt.Fprintf(&b, "twopc_wal_force_latency_seconds{quantile=\"0.99\"} %g\n", wfl.P99.Seconds())
	fmt.Fprintf(&b, "twopc_wal_force_latency_seconds_count %d\n", wfl.Count)

	// Per-transaction memory. The state and lock tables hold in-flight
	// work only and drain to 0 when the daemon idles; the decided table
	// keeps its pinned entries plus about one to two retransmission
	// horizons of recent decisions.
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("twopc_state_entries", "Live protocol state entries (in-flight transactions).", s.part.StateTableSize())
	gauge("twopc_decided_entries", "Decided-table entries: pinned ones plus decisions younger than the retransmission horizon (up to twice it).", s.part.DecidedTableSize())
	gauge("twopc_decided_pinned_entries", "Pinned decided-table entries: acknowledgments outstanding, aborts a non-abort presumption would answer wrongly, Paxos acceptor state.", s.part.PinnedDecisions())
	gauge("twopc_lock_table_keys", "Keys held or waited for in this shard's lock table.", s.store.Locks().TableSize())

	lat := snap.Latency
	fmt.Fprintf(&b, "# HELP twopc_commit_latency_seconds Commit latency distribution.\n# TYPE twopc_commit_latency_seconds summary\n")
	fmt.Fprintf(&b, "twopc_commit_latency_seconds{quantile=\"0.5\"} %g\n", lat.P50.Seconds())
	fmt.Fprintf(&b, "twopc_commit_latency_seconds{quantile=\"0.95\"} %g\n", lat.P95.Seconds())
	fmt.Fprintf(&b, "twopc_commit_latency_seconds{quantile=\"0.99\"} %g\n", lat.P99.Seconds())
	fmt.Fprintf(&b, "twopc_commit_latency_seconds_count %d\n", lat.Count)
	fmt.Fprintf(&b, "twopc_commit_latency_seconds_sum %g\n", (time.Duration(lat.Count) * lat.Mean).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}
