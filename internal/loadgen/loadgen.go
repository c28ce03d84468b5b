// Package loadgen is an open-loop load generator for the twopcd
// daemon: transactions arrive on a fixed schedule regardless of how
// fast the system answers (the arrival process never slows down to
// match the server, so queueing delay is visible instead of hidden —
// the classic open- vs closed-loop distinction).
//
// The generator drives any Committer; cmd/twopcload wires the HTTP
// one against a running daemon, tests wire in-process servers.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/api"
	"repro/internal/clock"
)

// Committer submits one transaction and classifies the result.
type Committer interface {
	// Commit runs tx to completion. committed reports a commit
	// outcome; shed reports admission rejection (the 503 path); err
	// is any other failure.
	Commit(ctx context.Context, tx string) (committed, shed bool, err error)
}

// OpsCommitter additionally accepts a typed operation list per
// transaction; Run uses it when Config.Ops generates one.
type OpsCommitter interface {
	Committer
	CommitOps(ctx context.Context, tx string, ops []api.Op) (committed, shed bool, err error)
}

// HTTPCommitter drives a twopcd coordinator (or a twopcrouter) over
// the v1 transaction API, via the public client package.
type HTTPCommitter struct {
	// BaseURL is the daemon's or router's HTTP address, e.g.
	// "http://127.0.0.1:8100".
	BaseURL string
	// Variant optionally overrides the daemon's default variant
	// ("pa", "pn", "pc", "basic").
	Variant string
	// Subs optionally overrides the daemon's default subordinate set
	// for protocol-only transactions (ignored when ops are supplied —
	// participants then come from the shard map).
	Subs []string
	// Client defaults to a keep-alive client with a generous pool.
	Client *http.Client
	// Retry, when set, retries sheds and transport failures on the
	// live runtime's backoff schedule. Off by default so the shed
	// column stays honest.
	Retry *clock.RetryPolicy

	once sync.Once
	c    *client.Client
}

func (h *HTTPCommitter) cli() *client.Client {
	h.once.Do(func() {
		opts := []client.Option{client.WithVariant(h.Variant)}
		if h.Client != nil {
			opts = append(opts, client.WithHTTPClient(h.Client))
		}
		if h.Retry != nil {
			opts = append(opts, client.WithRetry(*h.Retry))
		}
		h.c = client.New(h.BaseURL, opts...)
	})
	return h.c
}

// Commit implements Committer: a protocol-only transaction (no ops)
// via POST /v1/commit.
func (h *HTTPCommitter) Commit(ctx context.Context, tx string) (bool, bool, error) {
	return h.commit(ctx, api.CommitRequest{Tx: tx, Participants: h.Subs})
}

// CommitOps implements OpsCommitter: a typed multi-key transaction
// whose participants resolve from the fleet's shard map.
func (h *HTTPCommitter) CommitOps(ctx context.Context, tx string, ops []api.Op) (bool, bool, error) {
	return h.commit(ctx, api.CommitRequest{Tx: tx, Ops: ops})
}

func (h *HTTPCommitter) commit(ctx context.Context, req api.CommitRequest) (bool, bool, error) {
	resp, err := h.cli().Do(ctx, req)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
			return false, true, nil
		}
		return false, false, err
	}
	return resp.Outcome == "committed", false, nil
}

// Config shapes one load run.
type Config struct {
	// Rate is the open-loop arrival rate in transactions/second.
	Rate float64
	// Duration bounds the arrival schedule (completions are awaited
	// afterwards).
	Duration time.Duration
	// Workers caps concurrently outstanding transactions; arrivals
	// that find no worker free are counted as Dropped, not queued —
	// an overdriven open loop sheds at the client rather than
	// building an unbounded backlog. Default 64.
	Workers int
	// TxPrefix namespaces generated transaction ids (default "load").
	TxPrefix string
	// Ops, when set, generates each arrival's typed operation list
	// from its sequence number (see internal/workload for skewed
	// profiles). Requires the Committer to implement OpsCommitter.
	Ops func(seq int) []api.Op
}

// Result is one run's tally.
type Result struct {
	Offered   int           `json:"offered"` // arrivals scheduled
	Sent      int           `json:"sent"`    // arrivals that got a worker
	Dropped   int           `json:"dropped"` // arrivals shed client-side (no worker free)
	Committed int           `json:"committed"`
	Aborted   int           `json:"aborted"`
	Shed      int           `json:"shed"` // server-side 503s
	Errors    int           `json:"errors"`
	FirstErr  string        `json:"first_error,omitempty"` // sample of the first error seen
	Elapsed   time.Duration `json:"elapsed_ns"`

	latencies []time.Duration
}

// CommitsPerSec is the committed throughput over the whole run —
// goodput, when the offered rate exceeds it.
func (r Result) CommitsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// ShedRate is the fraction of offered arrivals refused under load —
// server-side 503s plus client-side drops (no worker free), both of
// which are the open loop hitting a full system.
func (r Result) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed+r.Dropped) / float64(r.Offered)
}

// Quantile returns the q-quantile (0..1) of commit latency.
func (r Result) Quantile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// Histogram renders commit latency as powers-of-two millisecond
// buckets with proportional bars.
func (r Result) Histogram() string {
	if len(r.latencies) == 0 {
		return "(no completed transactions)\n"
	}
	counts := make(map[int]int)
	maxBucket, maxCount := 0, 0
	for _, d := range r.latencies {
		b := 0
		if ms := d.Milliseconds(); ms > 0 {
			b = int(math.Log2(float64(ms))) + 1
		}
		counts[b]++
		if b > maxBucket {
			maxBucket = b
		}
		if counts[b] > maxCount {
			maxCount = counts[b]
		}
	}
	var sb strings.Builder
	for b := 0; b <= maxBucket; b++ {
		lo, hi := 0, 1
		if b > 0 {
			lo, hi = 1<<(b-1), 1<<b
		}
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", counts[b]*40/maxCount)
		}
		fmt.Fprintf(&sb, "%5d-%-5dms %7d %s\n", lo, hi, counts[b], bar)
	}
	return sb.String()
}

// Summary renders the human-readable report cmd/twopcload prints.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d  sent %d  dropped %d  committed %d  aborted %d  shed %d  errors %d\n",
		r.Offered, r.Sent, r.Dropped, r.Committed, r.Aborted, r.Shed, r.Errors)
	fmt.Fprintf(&b, "elapsed %s  commits/sec %.1f\n", r.Elapsed.Round(time.Millisecond), r.CommitsPerSec())
	fmt.Fprintf(&b, "latency p50 %s  p95 %s  p99 %s\n",
		r.Quantile(0.50).Round(time.Microsecond), r.Quantile(0.95).Round(time.Microsecond), r.Quantile(0.99).Round(time.Microsecond))
	b.WriteString(r.Histogram())
	return b.String()
}

// MarshalJSON emits the bench-comparable shape (latencies condensed
// to quantiles, everything in base units).
func (r Result) MarshalJSON() ([]byte, error) {
	type alias Result // avoid recursion
	return json.Marshal(struct {
		alias
		CommitsPerSec float64 `json:"commits_per_sec"`
		ShedRate      float64 `json:"shed_rate"`
		P50Ms         float64 `json:"p50_ms"`
		P95Ms         float64 `json:"p95_ms"`
		P99Ms         float64 `json:"p99_ms"`
	}{
		alias:         alias(r),
		CommitsPerSec: r.CommitsPerSec(),
		ShedRate:      r.ShedRate(),
		P50Ms:         float64(r.Quantile(0.50)) / float64(time.Millisecond),
		P95Ms:         float64(r.Quantile(0.95)) / float64(time.Millisecond),
		P99Ms:         float64(r.Quantile(0.99)) / float64(time.Millisecond),
	})
}

// Run drives c on cfg's open-loop schedule until the duration elapses
// or ctx is canceled, then waits for outstanding transactions.
func Run(ctx context.Context, c Committer, cfg Config) Result {
	if cfg.Workers < 1 {
		cfg.Workers = 64
	}
	if cfg.TxPrefix == "" {
		cfg.TxPrefix = "load"
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}

	oc, _ := c.(OpsCommitter)
	var (
		mu  sync.Mutex
		res Result
		wg  sync.WaitGroup
	)
	slots := make(chan struct{}, cfg.Workers)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()

	seq := 0
loop:
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			break loop
		case <-tick.C:
		}
		seq++
		mu.Lock()
		res.Offered++
		mu.Unlock()
		select {
		case slots <- struct{}{}:
		default:
			mu.Lock()
			res.Dropped++
			mu.Unlock()
			continue
		}
		seq := seq // capture: the loop keeps incrementing
		tx := fmt.Sprintf("%s:%d", cfg.TxPrefix, seq)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			t0 := time.Now()
			var (
				committed, shed bool
				err             error
			)
			if cfg.Ops != nil && oc != nil {
				committed, shed, err = oc.CommitOps(ctx, tx, cfg.Ops(seq))
			} else {
				committed, shed, err = c.Commit(ctx, tx)
			}
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			res.Sent++
			switch {
			case err != nil:
				res.Errors++
				if res.FirstErr == "" {
					res.FirstErr = err.Error()
				}
			case shed:
				res.Shed++
			case committed:
				res.Committed++
				res.latencies = append(res.latencies, lat)
			default:
				res.Aborted++
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}
