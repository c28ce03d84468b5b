package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// SweepPoint is one (x, series...) sample of a sweep experiment.
type SweepPoint struct {
	X      string
	Series map[string]float64
}

// Sweep is a named family of measured series over a parameter.
type Sweep struct {
	Title  string
	XLabel string
	Names  []string // series order
	Points []SweepPoint
}

// Render prints the sweep as a fixed-width table.
func (s Sweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-16s", s.XLabel)
	for _, n := range s.Names {
		fmt.Fprintf(&b, " %16s", n)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 16+17*len(s.Names)))
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-16s", p.X)
		for _, n := range s.Names {
			fmt.Fprintf(&b, " %16.1f", p.Series[n])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ReadFractionSweep measures total flows and forced writes as the
// read-only fraction of a tree rises — the §4 claim that "for an
// environment dominated by read-only transactions this optimization
// provides enormous savings," quantified.
func ReadFractionSweep(n int, fractions []float64) (Sweep, error) {
	s := Sweep{
		Title:  fmt.Sprintf("Read-only savings, n=%d flat tree (PA & Read Only vs basic 2PC)", n),
		XLabel: "read fraction",
		Names:  []string{"basic flows", "PA flows", "basic forced", "PA forced"},
	}
	for _, f := range fractions {
		point := SweepPoint{X: fmt.Sprintf("%.2f", f), Series: map[string]float64{}}
		for _, pa := range []bool{false, true} {
			cfg := core.Config{Variant: protocol.VariantBaseline}
			if pa {
				cfg = core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}
			}
			tr := workload.Generate(workload.Spec{N: n, Depth: 1, ReadFraction: f, Seed: 99})
			eng, tx, err := tr.Build(cfg)
			if err != nil {
				return Sweep{}, err
			}
			if res := tx.Commit(tr.Root); res.Outcome != core.OutcomeCommitted {
				return Sweep{}, fmt.Errorf("sweep commit failed: %v", res.Outcome)
			}
			t := eng.Metrics().ProtocolTriplet()
			if pa {
				point.Series["PA flows"] = float64(t.Flows)
				point.Series["PA forced"] = float64(t.Forced)
			} else {
				point.Series["basic flows"] = float64(t.Flows)
				point.Series["basic forced"] = float64(t.Forced)
			}
		}
		s.Points = append(s.Points, point)
	}
	return s, nil
}

// SatelliteSweep measures virtual commit latency with and without the
// last-agent optimization as one link's delay grows — §4's "if
// messages to one of the remote partners involve long network delays
// (i.e., connection through satellite) the last-agent optimization
// provides significant savings", including the crossover where it
// *loses* (it serializes an otherwise parallel prepare).
func SatelliteSweep(delays []time.Duration) (Sweep, error) {
	s := Sweep{
		Title:  "Last agent vs satellite-link delay (coordinator + near + far subordinate)",
		XLabel: "far-link delay",
		Names:  []string{"normal 2PC ms", "last agent ms"},
	}
	for _, d := range delays {
		point := SweepPoint{X: d.String(), Series: map[string]float64{}}
		for _, la := range []bool{false, true} {
			eng := core.NewEngine(core.Config{
				Variant:     protocol.VariantPA,
				Options:     core.Options{ReadOnly: true, LastAgent: la},
				VoteTimeout: 100 * time.Second,
				AckTimeout:  100 * time.Second,
			})
			eng.DisableTrace()
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
			eng.AddNode("NEAR").AttachResource(protocol.NewStaticResource("rn"))
			eng.AddNode("FAR").AttachResource(protocol.NewStaticResource("rf"))
			eng.SetLatency("C", "FAR", d)
			tx := eng.Begin("C")
			if err := tx.Send("C", "NEAR", "a"); err != nil {
				return Sweep{}, err
			}
			if err := tx.Send("C", "FAR", "b"); err != nil {
				return Sweep{}, err
			}
			if la {
				tx.SetLastAgent("C", "FAR")
			}
			res := tx.Commit("C")
			if res.Outcome != core.OutcomeCommitted {
				return Sweep{}, fmt.Errorf("satellite sweep: %v (%v)", res.Outcome, res.Err)
			}
			key := "normal 2PC ms"
			if la {
				key = "last agent ms"
			}
			point.Series[key] = float64(res.Latency.Microseconds()) / 1000
		}
		s.Points = append(s.Points, point)
	}
	return s, nil
}

// TreeSizeSweep measures how flows scale with participant count for
// each variant — the 4(n-1) law and PN's constant flow overhead of
// zero (its cost is in forces).
func TreeSizeSweep(sizes []int) (Sweep, error) {
	s := Sweep{
		Title:  "Cost scaling with tree size (flat tree, all updaters)",
		XLabel: "participants",
		Names:  []string{"flows", "basic forced", "PN forced"},
	}
	for _, n := range sizes {
		point := SweepPoint{X: fmt.Sprintf("%d", n), Series: map[string]float64{}}
		for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPN} {
			tr := workload.Generate(workload.Spec{N: n, Depth: 1, Seed: 7})
			eng, tx, err := tr.Build(core.Config{Variant: v})
			if err != nil {
				return Sweep{}, err
			}
			if res := tx.Commit(tr.Root); res.Outcome != core.OutcomeCommitted {
				return Sweep{}, fmt.Errorf("size sweep: %v", res.Outcome)
			}
			t := eng.Metrics().ProtocolTriplet()
			point.Series["flows"] = float64(t.Flows)
			if v == protocol.VariantPN {
				point.Series["PN forced"] = float64(t.Forced)
			} else {
				point.Series["basic forced"] = float64(t.Forced)
			}
		}
		s.Points = append(s.Points, point)
	}
	return s, nil
}

// GroupCommitSweep wraps GroupCommitTable as a Sweep for uniform
// rendering.
func GroupCommitSweep(txs int, sizes []int) (Sweep, error) {
	rows, err := GroupCommitTable(txs, sizes)
	if err != nil {
		return Sweep{}, err
	}
	s := Sweep{
		Title:  fmt.Sprintf("Group commit: physical syncs for %d transactions (3 forces each)", txs),
		XLabel: "group size",
		Names:  []string{"paper ceil(3n/m)", "measured syncs"},
	}
	for _, r := range rows {
		s.Points = append(s.Points, SweepPoint{
			X: fmt.Sprintf("%d", r.GroupSize),
			Series: map[string]float64{
				"paper ceil(3n/m)": float64(r.PaperSyncs),
				"measured syncs":   float64(r.MeasuredSyncs),
			},
		})
	}
	return s, nil
}
