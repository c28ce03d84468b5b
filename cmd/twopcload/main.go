// Command twopcload drives a twopcd fleet member (or a twopcrouter)
// with open-loop load: transactions of typed ops, drawn from -profile,
// arrive at a fixed rate for a fixed duration, and the run ends with a
// latency histogram and committed throughput.
//
//	twopcload -target http://127.0.0.1:8100 -rate 500 -duration 10s \
//	          -variant pn -workers 128 -profile uniform:fanout=3
//
// -json swaps the human report for a single JSON object (offered /
// committed / shed counts, commits_per_sec, p50/p95/p99 in ms) so
// scripts — scripts/bench.sh-style harnesses included — can ingest
// the result without scraping text.
//
// -overload switches to an overload sweep: first a saturating run
// measures the system's capacity (or -baseline-rate pins it), then
// each listed multiple of that capacity is offered open-loop and the
// report shows goodput vs offered load, shed rate, and p99 per point:
//
//	twopcload -target http://127.0.0.1:8100 -duration 5s \
//	          -overload 0.5,2,5,10 -workers 256 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/workload"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8100", "coordinator observability base URL")
	rate := flag.Float64("rate", 200, "open-loop arrival rate, transactions/second")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	variant := flag.String("variant", "", "protocol variant override: basic, pa, pn, pc, paxos, 1pc (empty = daemon default)")
	workers := flag.Int("workers", 64, "max concurrently outstanding transactions")
	jsonOut := flag.Bool("json", false, "emit a single JSON result object instead of the text report")
	txPrefix := flag.String("tx-prefix", "", "transaction id prefix (default: unique per invocation)")
	profileSpec := flag.String("profile", "uniform", "typed-ops access profile: uniform, hotkey, read-mostly, with k=v options — e.g. hotkey:s=1.5,keys=500,fanout=3")
	keys := flag.Int("keys", 0, "profile keyspace size override")
	fanOut := flag.Int("fanout", 0, "profile ops-per-transaction override (the multi-shard width knob)")
	zipfS := flag.Float64("zipf-s", 0, "profile zipf skew exponent override (hotkey)")
	overload := flag.String("overload", "", "overload sweep: comma-separated offered-load multiples of measured capacity, e.g. 0.5,2,5,10 (-rate becomes the calibration probe rate)")
	baselineRate := flag.Float64("baseline-rate", 0, "pin the sweep's capacity (commits/sec) instead of calibrating")
	calibrateDuration := flag.Duration("calibrate-duration", 0, "calibration probe length (default -duration)")
	flag.Parse()
	if *txPrefix == "" {
		// Transaction ids must not collide with an earlier run against
		// the same cluster — a reused id is a duplicate and aborts.
		*txPrefix = fmt.Sprintf("load-%d-%d", os.Getpid(), time.Now().UnixNano())
	}

	committer := &loadgen.HTTPCommitter{
		BaseURL: strings.TrimRight(*target, "/"),
		Variant: *variant,
		Client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        *workers * 2,
				MaxIdleConnsPerHost: *workers * 2,
			},
		},
	}
	profile, err := workload.ParseProfile(*profileSpec)
	if err != nil {
		log.Fatalf("twopcload: %v", err)
	}
	if *keys > 0 {
		profile.Keys = *keys
	}
	if *fanOut > 0 {
		profile.FanOut = *fanOut
	}
	if *zipfS > 0 {
		profile.ZipfS = *zipfS
	}
	if !*jsonOut {
		log.Printf("twopcload: profile %s", profile)
	}
	cfg := loadgen.Config{
		Rate:     *rate,
		Duration: *duration,
		Workers:  *workers,
		TxPrefix: *txPrefix,
		Ops:      profile.Generator(),
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	if *overload != "" {
		var multiples []float64
		for _, f := range strings.Split(*overload, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			m, err := strconv.ParseFloat(f, 64)
			if err != nil || m <= 0 {
				log.Fatalf("twopcload: bad -overload multiple %q (want a positive number)", f)
			}
			multiples = append(multiples, m)
		}
		ocfg := loadgen.OverloadConfig{
			Multiples:         multiples,
			BaselineRate:      *baselineRate,
			CalibrateDuration: *calibrateDuration,
		}
		// -rate only shapes the calibration probe when given explicitly;
		// the sweep's own rates come from the measured capacity.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "rate" {
				ocfg.CalibrateRate = *rate
			}
		})
		if !*jsonOut {
			log.Printf("twopcload: overload sweep x%v against %s (%s per point)", multiples, *target, *duration)
		}
		rep := loadgen.RunOverload(ctx, committer, cfg, ocfg)
		if *jsonOut {
			if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
				log.Fatalf("twopcload: %v", err)
			}
		} else {
			fmt.Print(rep.Summary())
		}
		if rep.CapacityCPS <= 0 {
			log.Fatal("twopcload: calibration committed nothing — is the daemon up?")
		}
		for _, p := range rep.Points {
			if p.Result.Errors > 0 {
				log.Printf("twopcload: x%g saw %d errors (first: %s)", p.Multiple, p.Result.Errors, p.Result.FirstErr)
				os.Exit(1)
			}
		}
		return
	}

	if !*jsonOut {
		log.Printf("twopcload: offering %.0f tx/s to %s for %s", *rate, *target, *duration)
	}
	res := loadgen.Run(ctx, committer, cfg)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			log.Fatalf("twopcload: %v", err)
		}
	} else {
		fmt.Print(res.Summary())
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}
