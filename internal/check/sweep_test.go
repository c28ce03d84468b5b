package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// cleanLiveSchedule is a failure-free live schedule for one variant:
// the probe run that counts each role's instrumented protocol steps.
// Paxos Commit gets three subordinates so the acceptor set is the
// real {C, S1, S2} majority topology — crashing subordinate S1 then
// is an acceptor crash, the window the variant exists to survive.
func cleanLiveSchedule(v protocol.Variant) Schedule {
	subs := 1
	if v == protocol.VariantPaxos {
		subs = 3
	}
	return Schedule{
		Seed:         int64(1000 + int(v)), // label only; not FromSeed-derived
		Variant:      v,
		Engine:       "live",
		Subs:         subs,
		PartitionSub: -1,
	}
}

func checkSweepRun(t *testing.T, s Schedule, what string) {
	t.Helper()
	res, err := RunLive(s)
	if err != nil {
		t.Errorf("%s: execute: %v", what, err)
		return
	}
	if vs := Check(res.Run); len(vs) > 0 {
		if path := WriteFailureArtifact(s, vs, res.Mermaid()); path != "" {
			t.Logf("failure artifact: %s", path)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s violated safety:\n", what)
		for _, v := range vs {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		fmt.Fprintf(&b, "trace:\n%s", res.Mermaid())
		t.Error(b.String())
	}
}

// TestLiveCrashPointSweep kills the coordinator — and then a
// subordinate — at every instrumented protocol step (before and after
// each forced log write, before and after each message send) for all
// six variants, restarts the victim, drives recovery, and requires
// the oracle green every time. The step counts come from a clean
// probe run of the same schedule. For Paxos Commit the subordinate
// sweep doubles as an acceptor-crash sweep (S1 sits in the quorum).
func TestLiveCrashPointSweep(t *testing.T) {
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			base := cleanLiveSchedule(v)
			probe, err := RunLive(base)
			if err != nil {
				t.Fatalf("probe run: %v", err)
			}
			if vs := Check(probe.Run); len(vs) > 0 {
				t.Fatalf("clean probe run violated safety: %v", vs)
			}
			if probe.CoordPoints == 0 || len(probe.SubPoints) == 0 || probe.SubPoints[0] == 0 {
				t.Fatalf("probe counted no failpoints (coord=%d subs=%v); instrumentation broken",
					probe.CoordPoints, probe.SubPoints)
			}
			for pt := 1; pt <= probe.CoordPoints; pt++ {
				s := base
				s.CrashCoord, s.CrashCoordAt = true, pt
				checkSweepRun(t, s, fmt.Sprintf("%s coordinator crash at step %d/%d", v, pt, probe.CoordPoints))
			}
			for pt := 1; pt <= probe.SubPoints[0]; pt++ {
				s := base
				s.CrashSub, s.CrashSubIdx, s.CrashSubAt = true, 0, pt
				checkSweepRun(t, s, fmt.Sprintf("%s subordinate crash at step %d/%d", v, pt, probe.SubPoints[0]))
			}
		})
	}
}
