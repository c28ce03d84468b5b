package check

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Schedule is one chaos scenario, fully determined by its seed: which
// variant and engine to run, the commit-tree size, and the failures to
// inject (crash points, a partition, a bounded message-loss window,
// and the restart order). Printing the seed is printing the repro.
type Schedule struct {
	Seed    int64
	Variant core.Variant
	Engine  string // "sim" (internal/core) or "live" (internal/live)
	Subs    int    // subordinates under the root coordinator

	// CrashCoord kills the coordinator mid-protocol. In the simulator
	// CrashCoordAt is a virtual-time offset (units of 800µs from commit
	// initiation); in the live runtime it is a failpoint count — the
	// coordinator dies at its CrashCoordAt'th instrumented step.
	CrashCoord   bool
	CrashCoordAt int

	// CrashSub kills subordinate CrashSubIdx the same way.
	CrashSub    bool
	CrashSubIdx int
	CrashSubAt  int

	// RestartCoordFirst orders the restarts: coordinator before the
	// crashed subordinate, or after.
	RestartCoordFirst bool

	// CoordStaysDown (Paxos Commit schedules only) keeps a crashed
	// coordinator down for the whole run: the classic protocols would
	// block here, and AC4Strict demands that Paxos Commit does not —
	// the subordinates must learn the outcome from the surviving
	// acceptor quorum alone.
	CoordStaysDown bool

	// PartitionSub (when >= 0) severs the coordinator's link to that
	// subordinate for PartitionMS milliseconds.
	PartitionSub int
	PartitionMS  int

	// LossPermil drops each message with probability LossPermil/1000
	// during commit processing, up to LossWindow total drops (bounded
	// so recovery inquiry retries cannot be starved forever).
	LossPermil int
	LossWindow int
}

// FromSeed expands a seed into a schedule. The mapping is pure: the
// same seed always yields the same schedule, which is what makes a
// failing run a one-line repro.
//
// The low three bits pick the variant (0..5 directly; the spare
// values 6..7 wrap back onto 0..1 so every seed is valid), bit 3
// picks the engine, and the rest of the seed drives the failure rng.
func FromSeed(seed int64) Schedule {
	s := Schedule{Seed: seed, PartitionSub: -1}
	v := seed & 7
	if v > int64(core.Variant1PC) {
		v -= 6
	}
	s.Variant = core.Variant(v)
	if (seed>>3)&1 == 0 {
		s.Engine = "sim"
	} else {
		s.Engine = "live"
	}
	rng := rand.New(rand.NewSource(seed))
	s.Subs = 1 + rng.Intn(3)
	if s.Variant == core.VariantPaxos {
		// Bias toward real acceptor quorums: with two or three
		// subordinates the acceptor set is {C, S1, S2}, so subordinate
		// crashes double as acceptor crashes.
		s.Subs = 2 + rng.Intn(2)
	}
	if rng.Intn(2) == 0 {
		s.CrashCoord = true
		s.CrashCoordAt = 1 + rng.Intn(12)
		if s.Variant == core.VariantPaxos {
			// The Paxos coordinator has more instrumented steps (its own
			// acceptor forces and ballot-0 accepts): reach past every
			// Prepare send so the classic blocking window — crash after
			// the prepares left, before any outcome — is squarely hit.
			s.CrashCoordAt = 1 + rng.Intn(18)
			s.CoordStaysDown = rng.Intn(2) == 0
		}
	}
	if rng.Intn(2) == 0 {
		s.CrashSub = true
		s.CrashSubIdx = rng.Intn(s.Subs)
		s.CrashSubAt = 1 + rng.Intn(10)
	}
	s.RestartCoordFirst = rng.Intn(2) == 0
	if rng.Intn(10) < 3 {
		s.PartitionSub = rng.Intn(s.Subs)
		s.PartitionMS = 5 + rng.Intn(41)
	}
	if rng.Intn(10) < 4 {
		s.LossPermil = rng.Intn(300)
		s.LossWindow = 1 + rng.Intn(8)
	}
	return s
}

// SubName returns the i'th subordinate's node name.
func SubName(i int) string { return fmt.Sprintf("S%d", i+1) }

// Nodes returns the schedule's node names, coordinator first.
func (s Schedule) Nodes() []string {
	out := []string{"C"}
	for i := 0; i < s.Subs; i++ {
		out = append(out, SubName(i))
	}
	return out
}

// ReplayCommand returns the go test invocation that re-executes
// exactly this schedule.
func (s Schedule) ReplayCommand() string {
	return fmt.Sprintf("go test ./internal/check -run TestChaos -args -seed=%d", s.Seed)
}

func (s Schedule) String() string {
	out := fmt.Sprintf("seed=%d %s/%s subs=%d", s.Seed, s.Variant, s.Engine, s.Subs)
	if s.CrashCoord {
		out += fmt.Sprintf(" crash-coord@%d", s.CrashCoordAt)
		if s.CoordStaysDown {
			out += "(stays down)"
		}
	}
	if s.CrashSub {
		out += fmt.Sprintf(" crash-%s@%d", SubName(s.CrashSubIdx), s.CrashSubAt)
	}
	if s.CrashCoord && s.CrashSub {
		if s.RestartCoordFirst {
			out += " restart=coord-first"
		} else {
			out += " restart=sub-first"
		}
	}
	if s.PartitionSub >= 0 {
		out += fmt.Sprintf(" partition-%s=%dms", SubName(s.PartitionSub), s.PartitionMS)
	}
	if s.LossPermil > 0 {
		out += fmt.Sprintf(" loss=%d‰(max %d)", s.LossPermil, s.LossWindow)
	}
	return out
}

// Execute runs the schedule on its engine and returns the completed
// run for the oracle.
func Execute(s Schedule) (*RunResult, error) {
	if s.Engine == "live" {
		return RunLive(s)
	}
	return RunSim(s)
}
