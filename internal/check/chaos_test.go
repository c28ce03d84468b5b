package check

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/protocol"
)

// seedFlag replays one schedule: the failure message of a chaos run
// prints the exact invocation, e.g.
//
//	go test ./internal/check -run TestChaos -args -seed=42
var seedFlag = flag.Int64("seed", 0, "replay a single chaos schedule by seed")

// Sweep width: seeds per variant per engine. The defaults make the
// full sweep the CI tier — 6 variants x (32 sim + 16 live) = 288
// schedules — and -short a quick local smoke. Both are overridable,
// by flag or by environment (the flag wins):
//
//	go test ./internal/check -run TestChaos -args -chaos.sim=200
//	CHAOS_SIM_SEEDS=200 CHAOS_LIVE_SEEDS=100 go test ./internal/check
var (
	simSeedsFlag  = flag.Int("chaos.sim", 0, "sim schedules per variant (0 = tier default)")
	liveSeedsFlag = flag.Int("chaos.live", 0, "live schedules per variant (0 = tier default)")
)

// sweepWidth resolves one engine's seeds-per-variant from the flag,
// the environment, and the tier default, in that order.
func sweepWidth(flagVal int, envKey string, def int) int {
	if flagVal > 0 {
		return flagVal
	}
	if s := os.Getenv(envKey); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// runSeed executes FromSeed's schedule for seed; see runSchedule.
func runSeed(t *testing.T, seed int64, withTrace bool) bool {
	t.Helper()
	return runSchedule(t, FromSeed(seed), withTrace)
}

// runSchedule executes one schedule and reports its violations through
// t, returning whether the run was clean. It uses t.Errorf only (never
// Fatal) so it is safe from worker goroutines.
func runSchedule(t *testing.T, s Schedule, withTrace bool) bool {
	t.Helper()
	res, err := Execute(s)
	if err != nil {
		WriteFailureArtifact(s, nil, "")
		t.Errorf("chaos %s: execute: %v\nreplay: %s", s, err, s.ReplayCommand())
		return false
	}
	vs := Check(res.Run)
	if len(vs) == 0 {
		return true
	}
	if path := WriteFailureArtifact(s, vs, res.Mermaid()); path != "" {
		t.Logf("failure artifact: %s", path)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos schedule violated safety: %s\n", s)
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	fmt.Fprintf(&b, "replay: %s\n", s.ReplayCommand())
	if withTrace {
		fmt.Fprintf(&b, "trace:\n%s", res.Mermaid())
	}
	t.Error(b.String())
	return false
}

// TestChaos sweeps seeded failure schedules over all six variants on
// both engines and runs every trace through the safety oracle. Seeds
// are structured so variant and engine coverage is exact: the low
// three bits pick the variant, bit 3 the engine.
func TestChaos(t *testing.T) {
	if *seedFlag != 0 {
		s := FromSeed(*seedFlag)
		t.Logf("replaying %s", s)
		runSeed(t, *seedFlag, true)
		return
	}

	simDef, liveDef := 32, 16 // the 288-schedule CI sweep (6 variants)
	if testing.Short() {
		simDef, liveDef = 8, 4
	}
	simPerVariant := sweepWidth(*simSeedsFlag, "CHAOS_SIM_SEEDS", simDef)
	livePerVariant := sweepWidth(*liveSeedsFlag, "CHAOS_LIVE_SEEDS", liveDef)
	variants := int64(protocol.Variant1PC) + 1

	// Simulator runs: cheap, fully deterministic, sequential. The
	// first failure gets the full mermaid trace; a run of failures
	// aborts the sweep (one protocol bug fails many seeds).
	failed := 0
	for variant := int64(0); variant < variants; variant++ {
		for i := int64(0); i < int64(simPerVariant); i++ {
			if !runSeed(t, i<<4|variant, failed == 0) {
				failed++
			}
			if failed > 5 {
				t.Fatalf("stopping sim sweep after %d failing schedules", failed)
			}
		}
	}

	// Live runs: real goroutines and timers, bounded worker pool.
	var seeds []int64
	for variant := int64(0); variant < variants; variant++ {
		for i := int64(0); i < int64(livePerVariant); i++ {
			seeds = append(seeds, i<<4|1<<3|variant)
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, seed := range seeds {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runSeed(t, seed, false)
		}(seed)
	}
	wg.Wait()
}

// TestScheduleDeterminism pins the seed -> schedule expansion: a
// replay command is only a repro if the mapping never drifts.
func TestScheduleDeterminism(t *testing.T) {
	for seed := int64(0); seed < 1024; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if a != b {
			t.Fatalf("seed %d expanded to two different schedules:\n%+v\n%+v", seed, a, b)
		}
		wantVariant := seed & 7
		if wantVariant > int64(protocol.Variant1PC) {
			wantVariant -= 6
		}
		if got := int64(a.Variant); got != wantVariant {
			t.Fatalf("seed %d: variant bit mapping broke: got %d want %d", seed, got, wantVariant)
		}
		wantEngine := "sim"
		if (seed>>3)&1 == 1 {
			wantEngine = "live"
		}
		if a.Engine != wantEngine {
			t.Fatalf("seed %d: engine bit mapping broke: got %s", seed, a.Engine)
		}
		if a.CoordStaysDown && (a.Variant != protocol.VariantPaxos || !a.CrashCoord) {
			t.Fatalf("seed %d: CoordStaysDown outside a Paxos coordinator crash: %+v", seed, a)
		}
	}
}

// TestChaosLivePaxosRecoveryBallots replays the live Paxos Commit
// schedules in which a subordinate leads recovery in more than one
// RecoverInDoubt pass with one acceptor down. Each pass must run at
// ballots the earlier passes did not: a reused ballot is one this
// node's own acceptor already promised and refuses, and with a second
// acceptor down no promise quorum forms, leaving the subordinate in
// doubt with a quorum alive.
func TestChaosLivePaxosRecoveryBallots(t *testing.T) {
	for _, seed := range []int64{2220, 2876} {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			runSeed(t, seed, true)
		})
	}
}
