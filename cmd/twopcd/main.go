// Command twopcd is the 2PC serving daemon: a live participant on a
// real TCP listener with an HTTP observability plane — /metrics
// (Prometheus text), /healthz, /varz, /auditz, /tracez, and
// net/http/pprof — plus an admission limit and graceful drain on
// SIGTERM/SIGINT.
//
// One binary serves both roles. A coordinator names its subordinates
// and accepts POST /v1/commit; a subordinate just runs the protocol.
// Peer addresses are static flags, so a three-node cluster is three
// processes:
//
//	twopcd -name S1 -listen 127.0.0.1:7101 -http 127.0.0.1:8101
//	twopcd -name S2 -listen 127.0.0.1:7102 -http 127.0.0.1:8102
//	twopcd -name C  -listen 127.0.0.1:7100 -http 127.0.0.1:8100 \
//	       -subs S1,S2 -peer S1=127.0.0.1:7101 -peer S2=127.0.0.1:7102 \
//	       -variant pa
//
// then drive it with cmd/twopcload, watch /metrics, and SIGTERM to
// drain. The daemon continuously audits its measured protocol costs
// against the paper's closed forms; a violation latches /healthz red.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/server"
	"repro/internal/wal"
)

// peerFlags collects repeated -peer name=addr flags.
type peerFlags map[string]string

func (p peerFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p peerFlags) Set(s string) error {
	name, addr, ok := strings.Cut(s, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("want name=addr, got %q", s)
	}
	p[name] = addr
	return nil
}

func main() {
	name := flag.String("name", "C", "participant name peers address this daemon by")
	listen := flag.String("listen", "127.0.0.1:0", "protocol (TCP) listen address")
	httpAddr := flag.String("http", "127.0.0.1:0", "observability/admin listen address")
	subs := flag.String("subs", "", "comma-separated default subordinate names (coordinator role)")
	variantName := flag.String("variant", "pa", "default protocol variant: basic, pa, pn, pc, paxos, 1pc")
	shards := flag.Int("shards", 0, "state-table shard count (0 = derive from GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 256, "admission limit; excess commits are shed with 503")
	admitRate := flag.Float64("admit-rate", 0, "admission token-bucket refill rate, tokens/sec (read-only = 1 token, read-write = 1/participant; 0 = inflight cap only)")
	admitBurst := flag.Int("admit-burst", 256, "admission token-bucket capacity")
	backpressure := flag.Bool("backpressure", false, "adapt the admit rate to live overload signals (WAL force P99, lock waiters, coalescer depth); needs -admit-rate")
	backpressureInterval := flag.Duration("backpressure-interval", 100*time.Millisecond, "backpressure controller sample period")
	auditEvery := flag.Duration("audit-interval", time.Second, "conformance-audit period (negative disables)")
	traceRing := flag.Int("trace-ring", 4096, "/tracez ring capacity (negative disables tracing)")
	walPath := flag.String("wal", "", "durable WAL segment directory (empty = in-memory)")
	walFsync := flag.Bool("wal-fsync", true, "issue real fdatasync on WAL forces (off trades durability for speed)")
	walGroupWindow := flag.Duration("wal-group-window", 2*time.Millisecond, "max adaptive group-commit window; 0 forces every sync immediately")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 4<<20, "preallocated WAL segment size")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain waits for inflight commits")
	voteTimeout := flag.Duration("vote-timeout", 2*time.Second, "phase-one vote collection deadline")
	ackTimeout := flag.Duration("ack-timeout", 2*time.Second, "phase-two ack collection deadline")
	shardMap := flag.String("shardmap", "", "fleet key-ownership map: hash:S1,S2,S3 or range:S1=g,S2=t,S3= (empty = this daemon owns every key)")
	stageTimeout := flag.Duration("stage-timeout", 2*time.Second, "lock-acquisition deadline while staging a transaction's ops")
	advertiseHTTP := flag.String("advertise-http", "", "HTTP base URL reported for this daemon in /v1/shards (default: bound listener)")
	peers := peerFlags{}
	flag.Var(peers, "peer", "peer protocol address as name=addr (repeatable)")
	peerHTTP := peerFlags{}
	flag.Var(peerHTTP, "peer-http", "peer HTTP base URL as name=http://host:port (repeatable; the /v1/stage data plane)")
	flag.Parse()

	variant, ok := server.ParseVariant(*variantName)
	if !ok {
		log.Fatalf("twopcd: unknown variant %q", *variantName)
	}

	cfg := server.Config{
		Name:          *name,
		ListenProto:   *listen,
		ListenHTTP:    *httpAddr,
		Peers:         peers,
		Variant:       variant,
		Shards:        *shards,
		MaxInflight:   *maxInflight,
		AdmitRate:     *admitRate,
		AdmitBurst:    *admitBurst,
		Backpressure:  *backpressure,
		AuditInterval: *auditEvery,
		TraceRing:     *traceRing,
		LiveOptions:   []live.Option{live.WithTimeout(*voteTimeout, *ackTimeout)},
		ShardMap:      *shardMap,
		PeerHTTP:      peerHTTP,
		StageTimeout:  *stageTimeout,
		AdvertiseHTTP: *advertiseHTTP,

		BackpressureInterval: *backpressureInterval,
	}
	if *backpressure && *admitRate <= 0 {
		log.Fatalf("twopcd: -backpressure needs -admit-rate > 0 (the controller's ceiling)")
	}
	if *subs != "" {
		cfg.Subs = strings.Split(*subs, ",")
	}
	var store *wal.SegmentStore
	if *walPath != "" {
		var err error
		store, err = wal.OpenSegmentStore(*walPath,
			wal.WithSegmentFsync(*walFsync),
			wal.WithSegmentBytes(*walSegmentBytes))
		if err != nil {
			log.Fatalf("twopcd: open wal: %v", err)
		}
		cfg.Log = wal.New(store)
		if *walGroupWindow > 0 {
			// The adaptive pipeline batches concurrent forces into
			// shared fdatasyncs; with a zero window every force pays
			// its own sync (ImmediateSync, the Log default).
			cfg.LiveOptions = append(cfg.LiveOptions, live.WithAdaptiveCommit(*walGroupWindow))
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("twopcd: %v", err)
	}
	log.Printf("twopcd %s: protocol on %s, http on %s, variant %s, subs %v",
		*name, s.ProtoAddr(), s.HTTPAddr(), variant, cfg.Subs)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	log.Printf("twopcd %s: %s received, draining (up to %s)", *name, sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		log.Printf("twopcd %s: drain: %v", *name, err)
	}
	rep, txs := s.AuditReport()
	log.Printf("twopcd %s: drained; audited %d transactions: %s", *name, txs, rep)
	_ = s.Close()
	if store != nil {
		// A clean stop hardens the records still buffered — the lazy End
		// records above all, without which a restart pins those
		// decisions again.
		if err := cfg.Log.Close(); err != nil {
			log.Printf("twopcd %s: close wal: %v", *name, err)
		}
		if err := store.Close(); err != nil {
			log.Printf("twopcd %s: close wal: %v", *name, err)
		}
	}
	if !rep.OK() {
		os.Exit(1)
	}
}
