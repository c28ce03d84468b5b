// Command perfbench is the serving benchmark for the sharded commit
// service. It boots three hash-sharded daemons in-process (variant PA,
// fsynced segment logs with the adaptive 2 ms group-commit window),
// preloads 100k keys through /v1/commit, and drives the fleet with two
// closed-loop clients for --seconds. The last line of standard output
// is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics (from spans recorded around each layer) with --trace 1.
// Every run ends with a correctness gate; a failed check exits 1
// without printing a result. See README.md.
//
//	go build -o perfbench . && ./perfbench --workload fanout3 --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/client"
)

const (
	numClients = 2
	// numSetups is how many fleets a run sets up; setup_s is the
	// median of their set-up times and the last one is measured.
	numSetups = 5
	// warmupTx is each client's warm-up transaction count, part of
	// set-up.
	warmupTx = 500
	// txPerClientSec sizes the per-client sample buffers; a faster
	// client only grows them.
	txPerClientSec = 12000
)

type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	out     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fanout3, local1 or hotmix3")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same transactions")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for segment logs and the span file")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *trace)
		os.Exit(2)
	}
	res, report, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out})
	for _, l := range report {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rig is one set-up fleet with its clients.
type rig struct {
	cfg     config
	f       *fleet
	rec     *recorder // nil unless traced
	hc      *http.Client
	clients []*clientRun
}

// setup boots a fleet, preloads it and warms it up; the returned
// duration is the set-up time.
func setup(ctx context.Context, cfg config, dir string) (*rig, time.Duration, error) {
	windows := 1
	r := &rig{cfg: cfg, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	if cfg.trace {
		r.rec = &recorder{}
		windows = 2
	}
	for c := 0; c < numClients; c++ {
		r.clients = append(r.clients, newClientRun(c, nil, newGen(cfg.w, cfg.seed, c), warmupTx+windows*cfg.seconds*txPerClientSec))
	}

	start := time.Now()
	f, err := bootFleet(dir, r.rec)
	if err != nil {
		return nil, 0, err
	}
	r.f = f
	for _, cr := range r.clients {
		cr.c = client.New(f.url(0), client.WithShardRouting(), client.WithVariant("pa"), client.WithHTTPClient(r.hc))
		// Fetch the shard map now: a traced run later points the
		// daemons' stage traffic at timing proxies, and the clients
		// must keep dialing the daemons themselves.
		if err := cr.c.RefreshShards(ctx); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("fetch shard map: %w", err)
		}
	}
	if err := preload(ctx, r.clients, f.smap); err != nil {
		r.close()
		return nil, 0, err
	}
	runAll(ctx, r.clients, warmupTx, time.Time{}, time.Time{}, nil)
	d := time.Since(start)
	var t tally
	for _, cr := range r.clients {
		t = t.add(cr.tally(0))
	}
	if t.committed != t.attempted {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d transactions did not commit (last error: %v)",
			t.attempted-t.committed, t.attempted, r.lastErr())
	}
	return r, d, nil
}

func (r *rig) close() {
	r.f.close()
	r.hc.CloseIdleConnections()
}

func (r *rig) lastErr() error {
	for _, cr := range r.clients {
		if cr.lastErr != nil {
			return cr.lastErr
		}
	}
	return nil
}

func run(cfg config) (*result, []string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	// Segment directories left by a run that was killed.
	stale, _ := filepath.Glob(filepath.Join(cfg.out, "fleet-*")) // the pattern is well formed
	for _, dir := range stale {
		_ = os.RemoveAll(dir) // best effort, as in fleet.close
	}
	report := []string{fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%v clients=%d",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, numClients)}

	var r *rig
	var setupTimes []time.Duration
	for i := 0; i < numSetups; i++ {
		if r != nil {
			// Collect the closed fleet before timing the next set-up,
			// so no set-up pays for its predecessor's garbage.
			r.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		r, d, err = setup(ctx, cfg, filepath.Join(cfg.out, fmt.Sprintf("fleet-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, report, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d)
	}
	defer r.close()
	report = append(report, fmt.Sprintf("setup_s each: %v", setupTimes))

	window := time.Duration(cfg.seconds) * time.Second
	res := &result{}
	var st windowStats
	var lm map[string]metric
	if !cfg.trace {
		st = measure(ctx, r.clients, window, nil)
		res.Metrics = endToEnd(st, quantile(setupTimes, 0.5))
	} else {
		// The untraced baseline for the overhead ratios runs half as
		// long; the traced window keeps the full length, so the
		// 100 ms waiter poll gets enough samples.
		base := measure(ctx, r.clients, window/2, nil)
		var err error
		st, lm, err = r.traced(ctx, window, base)
		if err != nil {
			return nil, report, err
		}
		report = append(report, fmt.Sprintf("tracing overhead (traced/untraced): commits_per_s %.3f, p50_ms %.3f, cpu_us_per_commit %.3f",
			lm["trace.commits_per_s_ratio"].Value, lm["trace.p50_ms_ratio"].Value, lm["trace.cpu_us_per_commit_ratio"].Value))
		res.Metrics = lm
	}
	report = append(report, fmt.Sprintf("window %.2fs: attempted %d committed %d aborted %d errors %d; latency samples %d (%d beyond p99); live heap at start %.1f MB",
		st.dur.Seconds(), st.attempted, st.committed, st.aborted, st.errors, st.committed, st.committed/100, float64(st.heapStart)/(1<<20)))
	var rates, p99s []string
	for _, sl := range st.slices {
		rates = append(rates, fmt.Sprintf("%.0f", float64(len(sl.lat))/sl.dur.Seconds()))
		p99s = append(p99s, fmt.Sprintf("%.2f", ms(quantile(sl.lat, 0.99))))
	}
	report = append(report, "commits/s by slice: "+strings.Join(rates, " "), "p99_ms by slice: "+strings.Join(p99s, " "))

	exactFrac, shed, err := r.verify(ctx)
	if err != nil {
		return nil, report, err
	}
	if cfg.trace {
		res.Metrics["audit.exact_frac"] = metric{exactFrac, "frac"}
		if err := separation(cfg.w, res.Metrics); err != nil {
			return nil, report, err
		}
		path := filepath.Join(cfg.out, "spans-"+cfg.w.name+".jsonl")
		if err := r.rec.write(path); err != nil {
			return nil, report, fmt.Errorf("write spans: %w", err)
		}
		report = append(report, fmt.Sprintf("%d spans written to %s", len(r.rec.spans), path))
	}
	report = append(report, "correctness gate: passed")
	res.Correct = true
	res.Attempted = st.attempted
	res.Failed = st.aborted + st.errors + int(shed)
	return res, report, nil
}

// endToEnd is the untraced run's report.
func endToEnd(st windowStats, setup time.Duration) map[string]metric {
	n := float64(max(st.committed, 1))
	return map[string]metric{
		"setup_s":                  {setup.Seconds(), "s"},
		"commits_per_s":            {st.perSec(), "1/s"},
		"p50_ms":                   {st.p50MS(), "ms"},
		"p99_ms":                   {st.p99MS(), "ms"},
		"cpu_us_per_commit":        {st.cpuPerCommitUS(), "us"},
		"alloc_kb_per_commit":      {float64(st.allocBytes) / 1024 / n, "KB"},
		"heap_growth_b_per_commit": {float64(st.heapGrowth) / n, "B"},
	}
}
