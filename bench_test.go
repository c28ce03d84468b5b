// Benchmarks regenerating every table and figure of the paper's
// evaluation. Wall-clock ns/op measures the simulator itself; the
// paper's quantities — message flows, log writes, forced writes, and
// virtual commit latency — are emitted as custom metrics
// (flows/commit, logs/commit, forced/commit, vlat_us = virtual
// latency in microseconds), so `go test -bench .` prints the same
// numbers the tables report. cmd/benchtables renders them in the
// paper's layout.
package twopc_test

import (
	"fmt"
	"testing"
	"time"

	twopc "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// reportTriplet attaches the paper's counting metrics to a bench.
func reportTriplet(b *testing.B, flows, logs, forced float64) {
	b.ReportMetric(flows, "flows/commit")
	b.ReportMetric(logs, "logs/commit")
	b.ReportMetric(forced, "forced/commit")
}

// runFlat builds a flat tree of n members under cfg and commits once
// per iteration, reporting counts from the final iteration.
func runFlat(b *testing.B, cfg core.Config, n int, resource func(i int) protocol.Resource) {
	b.Helper()
	var flows, logs, forced, vlat float64
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(cfg)
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(resource(0))
		for j := 1; j < n; j++ {
			id := protocol.NodeID(fmt.Sprintf("S%02d", j))
			eng.AddNode(id).AttachResource(resource(j))
		}
		tx := eng.Begin("C")
		for j := 1; j < n; j++ {
			if err := tx.Send("C", protocol.NodeID(fmt.Sprintf("S%02d", j)), "w"); err != nil {
				b.Fatal(err)
			}
		}
		res := tx.Commit("C")
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		eng.FlushSessions()
		t := eng.Metrics().ProtocolTriplet()
		flows, logs, forced = float64(t.Flows), float64(t.Writes), float64(t.Forced)
		vlat = float64(res.Latency.Microseconds())
	}
	reportTriplet(b, flows, logs, forced)
	b.ReportMetric(vlat, "vlat_us")
}

func updater(name string) protocol.Resource { return protocol.NewStaticResource(name) }

// --- Table 2: two-participant costs per variant and optimization ---------

func BenchmarkTable2(b *testing.B) {
	type rowCfg struct {
		name string
		cfg  core.Config
		res  func(i int) protocol.Resource
	}
	rows := []rowCfg{
		{"Basic2PC", core.Config{Variant: protocol.VariantBaseline}, nil},
		{"PN", core.Config{Variant: protocol.VariantPN}, nil},
		{"PC", core.Config{Variant: protocol.VariantPC, Options: core.Options{ReadOnly: true}}, nil},
		{"PA_Commit", core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, nil},
		{"PA_ReadOnly", core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
			func(i int) protocol.Resource {
				return protocol.NewStaticResource(fmt.Sprintf("r%d", i), protocol.StaticVote(protocol.VoteReadOnly))
			}},
		{"PA_LastAgent", core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, LastAgent: true}}, nil},
		{"PA_VoteReliable", core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}},
			func(i int) protocol.Resource {
				return protocol.NewStaticResource(fmt.Sprintf("r%d", i), protocol.StaticReliable())
			}},
		{"PA_WaitForOutcome", core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, WaitForOutcome: true}}, nil},
	}
	for _, row := range rows {
		res := row.res
		if res == nil {
			res = func(i int) protocol.Resource { return updater(fmt.Sprintf("r%d", i)) }
		}
		b.Run(row.name, func(b *testing.B) { runFlat(b, row.cfg, 2, res) })
	}
	b.Run("PA_UnsolicitedVote", benchUnsolicited)
	b.Run("PA_LongLocks", benchLongLocksPair)
}

func benchUnsolicited(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.Config{Variant: protocol.VariantPA,
			Options: core.Options{ReadOnly: true}})
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(updater("rc"))
		eng.AddNode("S").AttachResource(updater("rs"))
		tx := eng.Begin("C")
		if err := tx.Send("C", "S", "w"); err != nil {
			b.Fatal(err)
		}
		if err := tx.UnsolicitedVote("S"); err != nil {
			b.Fatal(err)
		}
		if res := tx.Commit("C"); res.Err != nil {
			b.Fatal(res.Err)
		}
		t = float64(eng.Metrics().ProtocolTriplet().Flows)
	}
	b.ReportMetric(t, "flows/commit")
}

func benchLongLocksPair(b *testing.B) {
	var flowsPerTx float64
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.Config{Variant: protocol.VariantPA,
			Options: core.Options{ReadOnly: true, LongLocks: true}})
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(updater("rc"))
		eng.AddNode("S").AttachResource(updater("rs"))
		const chain = 4
		var pendings []*core.Pending
		for c := 0; c < chain; c++ {
			tx := eng.Begin("C")
			if c == 0 {
				tx.Send("C", "S", "w")
			} else {
				tx.Send("S", "C", "next") // sub begins the next tx: carries the ack
				tx.Send("C", "S", "reply")
			}
			p := tx.CommitAsync("C")
			eng.Drain()
			pendings = append(pendings, p)
		}
		eng.FlushSessions()
		for _, p := range pendings {
			if r, done := p.Result(); !done || r.Err != nil {
				b.Fatalf("chain incomplete: %+v", r)
			}
		}
		flowsPerTx = float64(eng.Metrics().ProtocolTriplet().Flows) / chain
	}
	b.ReportMetric(flowsPerTx, "flows/commit")
}

// --- Table 3: n=11, m=4 ----------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	b.Run("harness_n11_m4", func(b *testing.B) {
		var rows []harness.Row
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = harness.Table3(11, 4)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Measured.Flows), "flows:"+shortName(r.Name))
		}
	})
	// Individual rows as full protocol runs.
	n, m := 11, 4
	b.Run("Basic2PC", func(b *testing.B) {
		runFlat(b, core.Config{Variant: protocol.VariantBaseline}, n,
			func(i int) protocol.Resource { return updater(fmt.Sprintf("r%d", i)) })
	})
	b.Run("PA_ReadOnly", func(b *testing.B) {
		runFlat(b, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, n,
			func(i int) protocol.Resource {
				if i >= 1 && i <= m {
					return protocol.NewStaticResource(fmt.Sprintf("r%d", i), protocol.StaticVote(protocol.VoteReadOnly))
				}
				return updater(fmt.Sprintf("r%d", i))
			})
	})
	b.Run("PA_VoteReliable", func(b *testing.B) {
		runFlat(b, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}}, n,
			func(i int) protocol.Resource {
				if i >= 1 && i <= m {
					return protocol.NewStaticResource(fmt.Sprintf("r%d", i), protocol.StaticReliable())
				}
				return updater(fmt.Sprintf("r%d", i))
			})
	})
}

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Table 4: chained transactions ------------------------------------------

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table4(12)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Measured.Flows), "flows:"+shortName(r.Name))
			}
		}
	}
}

// --- Figures: virtual latency of each flow pattern ---------------------------

func benchFigure(b *testing.B, cfg core.Config, build func(eng *core.Engine) *core.Tx, root protocol.NodeID) {
	b.Helper()
	var vlat, flows float64
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(cfg)
		eng.DisableTrace()
		tx := build(eng)
		res := tx.Commit(root)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		vlat = float64(res.Latency.Microseconds())
		flows = float64(eng.Metrics().ProtocolTriplet().Flows)
	}
	b.ReportMetric(vlat, "vlat_us")
	b.ReportMetric(flows, "flows/commit")
}

func pair(eng *core.Engine) *core.Tx {
	eng.AddNode("C").AttachResource(updater("rc"))
	eng.AddNode("S").AttachResource(updater("rs"))
	tx := eng.Begin("C")
	tx.Send("C", "S", "w")
	return tx
}

func chain3(eng *core.Engine) *core.Tx {
	eng.AddNode("C").AttachResource(updater("rc"))
	eng.AddNode("M").AttachResource(updater("rm"))
	eng.AddNode("L").AttachResource(updater("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	return tx
}

func BenchmarkFigure1_Basic2PC(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantBaseline}, pair, "C")
}

func BenchmarkFigure2_Cascaded(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantBaseline}, chain3, "C")
}

func BenchmarkFigure3_PNCascaded(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantPN}, chain3, "C")
}

func BenchmarkFigure4_PartialReadOnly(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
		func(eng *core.Engine) *core.Tx {
			eng.AddNode("C").AttachResource(updater("rc"))
			eng.AddNode("RO").AttachResource(protocol.NewStaticResource("ro", protocol.StaticVote(protocol.VoteReadOnly)))
			eng.AddNode("UP").AttachResource(updater("up"))
			tx := eng.Begin("C")
			tx.Send("C", "RO", "r")
			tx.Send("C", "UP", "w")
			return tx
		}, "C")
}

func BenchmarkFigure6_LastAgent(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, LastAgent: true}}, pair, "C")
}

func BenchmarkFigure7_LongLocks(b *testing.B) { benchLongLocksPair(b) }

func BenchmarkFigure8_VoteReliable(b *testing.B) {
	benchFigure(b, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}},
		func(eng *core.Engine) *core.Tx {
			eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", protocol.StaticReliable()))
			eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm", protocol.StaticReliable()))
			eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl", protocol.StaticReliable()))
			tx := eng.Begin("C")
			tx.Send("C", "M", "x")
			tx.Send("M", "L", "y")
			return tx
		}, "C")
}

// --- §4 Group Commits ---------------------------------------------------------

func BenchmarkGroupCommit(b *testing.B) {
	for _, size := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			var syncsPerTx float64
			for i := 0; i < b.N; i++ {
				rows, err := harness.GroupCommitTable(48, []int{size})
				if err != nil {
					b.Fatal(err)
				}
				syncsPerTx = float64(rows[0].MeasuredSyncs) / float64(rows[0].Transactions)
			}
			b.ReportMetric(syncsPerTx, "syncs/tx")
		})
	}
}

// --- Ablation: last agent versus a satellite link ------------------------------

func BenchmarkLastAgentSatellite(b *testing.B) {
	for _, satellite := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond} {
		for _, lastAgent := range []bool{false, true} {
			name := fmt.Sprintf("delay%s/lastAgent=%v", satellite, lastAgent)
			b.Run(name, func(b *testing.B) {
				var vlat float64
				for i := 0; i < b.N; i++ {
					eng := core.NewEngine(core.Config{
						Variant:     protocol.VariantPA,
						Options:     core.Options{ReadOnly: true, LastAgent: lastAgent},
						VoteTimeout: 10 * time.Second,
						AckTimeout:  10 * time.Second,
					})
					eng.DisableTrace()
					eng.AddNode("C").AttachResource(updater("rc"))
					eng.AddNode("NEAR").AttachResource(updater("rn"))
					eng.AddNode("FAR").AttachResource(updater("rf"))
					eng.SetLatency("C", "FAR", satellite)
					tx := eng.Begin("C")
					tx.Send("C", "NEAR", "a")
					tx.Send("C", "FAR", "b")
					if lastAgent {
						tx.SetLastAgent("C", "FAR")
					}
					res := tx.Commit("C")
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					vlat = float64(res.Latency.Microseconds())
				}
				b.ReportMetric(vlat, "vlat_us")
			})
		}
	}
}

// --- Ablation: variant comparison on a generated workload ----------------------

func BenchmarkWorkloadVariants(b *testing.B) {
	spec := workload.Spec{N: 12, Depth: 2, ReadFraction: 0.5, Seed: 42}
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		b.Run(v.String(), func(b *testing.B) {
			var flows, forced float64
			for i := 0; i < b.N; i++ {
				opts := core.Options{}
				if v != protocol.VariantBaseline {
					opts.ReadOnly = true
				}
				tr := workload.Generate(spec)
				eng, tx, err := tr.Build(core.Config{Variant: v, Options: opts})
				if err != nil {
					b.Fatal(err)
				}
				if res := tx.Commit(tr.Root); res.Err != nil {
					b.Fatal(res.Err)
				}
				t := eng.Metrics().ProtocolTriplet()
				flows, forced = float64(t.Flows), float64(t.Forced)
			}
			b.ReportMetric(flows, "flows/commit")
			b.ReportMetric(forced, "forced/commit")
		})
	}
}

// --- Raw engine throughput (real time) ------------------------------------------

func BenchmarkEngineCommitThroughput(b *testing.B) {
	eng := twopc.NewEngine(twopc.Config{Variant: twopc.VariantPA, Options: twopc.Options{ReadOnly: true}})
	eng.DisableTrace()
	eng.AddNode("A").AttachResource(twopc.NewStaticResource("ra"))
	eng.AddNode("B").AttachResource(twopc.NewStaticResource("rb"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := eng.Begin("A")
		if err := tx.Send("A", "B", "w"); err != nil {
			b.Fatal(err)
		}
		if res := tx.Commit("A"); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
