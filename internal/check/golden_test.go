package check

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simulator.golden from this tree")

const goldenPath = "testdata/simulator.golden"

// dumpRun writes r's events, one per line, then each node's final
// state in name order (fmt prints a map's keys sorted).
func dumpRun(h hash.Hash, r *RunResult) int {
	for _, e := range r.Run.Events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	names := make([]string, 0, len(r.Run.Final))
	for name := range r.Run.Final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "final %s %+v\n", name, r.Run.Final[name])
	}
	return len(r.Run.Events)
}

// simDigests runs every schedule in ss on the simulator and returns
// one golden line: the group's name, its schedule and event counts,
// and the digest of every dump in order.
func simDigests(t *testing.T, name string, ss []Schedule) string {
	h := sha256.New()
	events := 0
	for _, s := range ss {
		r, err := RunSim(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		fmt.Fprintf(h, "schedule %d\n", s.Seed)
		events += dumpRun(h, r)
	}
	return fmt.Sprintf("%s schedules=%d events=%d sha256=%x", name, len(ss), events, h.Sum(nil))
}

// TestSimulatorGolden pins the simulator's behaviour: the RunSim dumps
// of the 1,536 sim schedules FromSeed(i<<4|v) (i < 256, every variant),
// of the sim last-agent schedules, and the output of benchtables -all.
// A refactor of either engine's round sequencing must leave every
// digest as it is; a change that means to alter the simulator rewrites
// the file with
//
//	go test ./internal/check -run TestSimulatorGolden -update
//
// and names each difference and its oracle verdict in its description.
func TestSimulatorGolden(t *testing.T) {
	var lines []string
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		var ss []Schedule
		for i := int64(0); i < 256; i++ {
			ss = append(ss, FromSeed(i<<4|int64(v)))
		}
		lines = append(lines, simDigests(t, "fromseed/"+v.String(), ss))
	}
	var la []Schedule
	for _, seed := range lastAgentSeeds(32, 16) {
		if s := LastAgentSchedule(seed); s.Engine == "sim" {
			la = append(la, s)
		}
	}
	lines = append(lines, simDigests(t, "lastagent", la))

	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "run", "repro/cmd/benchtables", "-all").Output()
	if err != nil {
		t.Fatalf("benchtables -all: %v", err)
	}
	lines = append(lines, fmt.Sprintf("benchtables-all bytes=%d sha256=%x", len(out), sha256.Sum256(out)))

	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "(missing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("simulator output moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, this tree %d", len(wantLines), len(lines))
	}
}
