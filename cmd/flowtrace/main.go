// Command flowtrace renders the paper's protocol figures as time
// sequence charts produced by real protocol runs on the simulator.
//
// Usage:
//
//	flowtrace -figure N    render figure N (1,2,3,4,6,7,8)
//	flowtrace -all         render every figure
//	flowtrace -chaos -seed N
//	                       replay chaos schedule N (internal/check),
//	                       render its trace, and run the safety oracle
//	flowtrace -cpuprofile cpu.prof -memprofile mem.prof ...
//	                       write pprof profiles of the run; chaos
//	                       replays are the usual target
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/check"
	"repro/internal/core"
)

// profiles holds the active pprof outputs so every exit path — normal
// return or the explicit exit() below — flushes them. os.Exit skips
// defers, which is why nothing in this command calls it directly.
type profiles struct {
	cpu     *os.File
	memPath string
}

var prof profiles

func (p *profiles) start(cpuPath, memPath string) {
	p.memPath = memPath
	if cpuPath == "" {
		return
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowtrace:", err)
		exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "flowtrace:", err)
		exit(1)
	}
	p.cpu = f
}

func (p *profiles) stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		p.cpu.Close()
		p.cpu = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowtrace:", err)
			return
		}
		defer f.Close()
		runtime.GC() // collect dead objects so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "flowtrace:", err)
		}
		p.memPath = ""
	}
}

// exit flushes profiles and terminates; use instead of os.Exit.
func exit(code int) {
	prof.stop()
	os.Exit(code)
}

func main() {
	figure := flag.Int("figure", 0, "figure number to render (1,2,3,4,6,7,8)")
	all := flag.Bool("all", false, "render every figure")
	mermaid := flag.Bool("mermaid", false, "emit Mermaid sequenceDiagram instead of ASCII")
	chaos := flag.Bool("chaos", false, "replay a chaos schedule (with -seed) instead of a figure")
	seed := flag.Int64("seed", 0, "chaos schedule seed for -chaos")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	prof.start(*cpuprofile, *memprofile)
	defer prof.stop()

	if *chaos {
		renderChaos(*seed, *mermaid)
		prof.stop()
		return
	}

	figures := map[int]func() (string, *core.Engine, []core.NodeID){
		1: figure1, 2: figure2, 3: figure3, 4: figure4,
		6: figure6, 7: figure7, 8: figure8,
	}
	render := func(n int) {
		f, ok := figures[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "flowtrace: no figure %d (figure 5 is the leave-out hazard; see the Figure-5 test)\n", n)
			exit(2)
		}
		title, eng, order := f()
		fmt.Printf("=== Figure %d: %s ===\n\n", n, title)
		cols := make([]string, len(order))
		for i, id := range order {
			cols[i] = string(id)
		}
		if *mermaid {
			fmt.Println("```mermaid")
			fmt.Print(eng.Trace().Mermaid(cols...))
			fmt.Println("```")
		} else {
			fmt.Println(eng.Trace().Render(cols...))
		}
		t := eng.Metrics().ProtocolTriplet()
		fmt.Printf("totals: %d flows, %d log writes (%d forced)\n\n", t.Flows, t.Writes, t.Forced)
	}

	switch {
	case *all:
		for _, n := range []int{1, 2, 3, 4, 6, 7, 8} {
			render(n)
		}
	case *figure != 0:
		render(*figure)
	default:
		flag.Usage()
		exit(2)
	}
}

// renderChaos replays one seeded chaos schedule on its engine,
// renders the interleaving, and reports the safety oracle's verdict.
// It exits nonzero on a violation, so it doubles as a shell-scriptable
// checker. Live-engine replays round-trip every packet through the
// wire codec, as every live chaos schedule does.
func renderChaos(seed int64, mermaid bool) {
	s := check.FromSeed(seed)
	res, err := check.Execute(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowtrace: chaos %s: %v\n", s, err)
		exit(1)
	}
	fmt.Printf("=== Chaos schedule %s ===\n\n", s)
	if mermaid {
		fmt.Println("```mermaid")
		fmt.Print(res.Mermaid())
		fmt.Println("```")
	} else {
		fmt.Println(res.Tracer.Render(s.Nodes()...))
	}
	vs := check.Check(res.Run)
	if len(vs) == 0 {
		fmt.Println("oracle: clean (AC1-AC5 hold)")
		return
	}
	fmt.Printf("oracle: %d violation(s)\n", len(vs))
	for _, v := range vs {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("replay: %s\n", s.ReplayCommand())
	exit(1)
}

func pairEngine(cfg core.Config) (*core.Engine, *core.Tx) {
	eng := core.NewEngine(cfg)
	eng.AddNode("Coordinator").AttachResource(core.NewStaticResource("rc"))
	eng.AddNode("Subordinate").AttachResource(core.NewStaticResource("rs"))
	tx := eng.Begin("Coordinator")
	must(tx.Send("Coordinator", "Subordinate", "work"))
	return eng, tx
}

func chainEngine(cfg core.Config, leafOpts ...core.StaticOption) (*core.Engine, *core.Tx) {
	eng := core.NewEngine(cfg)
	eng.AddNode("Coordinator").AttachResource(core.NewStaticResource("rc"))
	eng.AddNode("Cascaded").AttachResource(core.NewStaticResource("rm"))
	eng.AddNode("Subordinate").AttachResource(core.NewStaticResource("rl", leafOpts...))
	tx := eng.Begin("Coordinator")
	must(tx.Send("Coordinator", "Cascaded", "work"))
	must(tx.Send("Cascaded", "Subordinate", "work"))
	return eng, tx
}

func figure1() (string, *core.Engine, []core.NodeID) {
	eng, tx := pairEngine(core.Config{Variant: core.VariantBaseline})
	tx.Commit("Coordinator")
	return "Simple Two-Phase Commit Processing", eng, []core.NodeID{"Coordinator", "Subordinate"}
}

func figure2() (string, *core.Engine, []core.NodeID) {
	eng, tx := chainEngine(core.Config{Variant: core.VariantBaseline})
	tx.Commit("Coordinator")
	return "2PC with a Cascaded Coordinator", eng, []core.NodeID{"Coordinator", "Cascaded", "Subordinate"}
}

func figure3() (string, *core.Engine, []core.NodeID) {
	eng, tx := chainEngine(core.Config{Variant: core.VariantPN})
	tx.Commit("Coordinator")
	return "Presumed Nothing Commit Processing with Intermediate Coordinator", eng,
		[]core.NodeID{"Coordinator", "Cascaded", "Subordinate"}
}

func figure4() (string, *core.Engine, []core.NodeID) {
	eng := core.NewEngine(core.Config{Variant: core.VariantPA, Options: core.Options{ReadOnly: true}})
	eng.AddNode("Coordinator").AttachResource(core.NewStaticResource("rc"))
	eng.AddNode("ReadOnly").AttachResource(core.NewStaticResource("ro", core.StaticVote(core.VoteReadOnly)))
	eng.AddNode("Updater").AttachResource(core.NewStaticResource("up"))
	tx := eng.Begin("Coordinator")
	must(tx.Send("Coordinator", "ReadOnly", "read"))
	must(tx.Send("Coordinator", "Updater", "write"))
	tx.Commit("Coordinator")
	return "Partial Read-Only Commit Processing", eng,
		[]core.NodeID{"Coordinator", "ReadOnly", "Updater"}
}

func figure6() (string, *core.Engine, []core.NodeID) {
	eng, tx := pairEngine(core.Config{Variant: core.VariantPA, Options: core.Options{ReadOnly: true, LastAgent: true}})
	tx.Commit("Coordinator")
	eng.FlushSessions()
	return "Last-Agent Commit Processing", eng, []core.NodeID{"Coordinator", "Subordinate"}
}

func figure7() (string, *core.Engine, []core.NodeID) {
	eng := core.NewEngine(core.Config{Variant: core.VariantPA, Options: core.Options{ReadOnly: true, LongLocks: true}})
	eng.AddNode("Coordinator").AttachResource(core.NewStaticResource("rc"))
	eng.AddNode("Subordinate").AttachResource(core.NewStaticResource("rs"))
	tx1 := eng.Begin("Coordinator")
	must(tx1.Send("Coordinator", "Subordinate", "tx1 work"))
	p := tx1.CommitAsync("Coordinator")
	eng.Drain()
	tx2 := eng.Begin("Subordinate")
	must(tx2.Send("Subordinate", "Coordinator", "tx2 begins (carries buffered ack)"))
	must(tx2.Send("Coordinator", "Subordinate", "tx2 work"))
	tx2.Commit("Coordinator")
	eng.FlushSessions()
	if r, done := p.Result(); !done || r.Err != nil {
		fmt.Fprintln(os.Stderr, "flowtrace: figure 7 chain incomplete")
	}
	return "Long Locks Across Chained Transactions", eng, []core.NodeID{"Coordinator", "Subordinate"}
}

func figure8() (string, *core.Engine, []core.NodeID) {
	eng, tx := chainEngine(core.Config{Variant: core.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}})
	// All three resources reliable: rebuild with reliable resources.
	eng = core.NewEngine(core.Config{Variant: core.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}})
	eng.AddNode("Coordinator").AttachResource(core.NewStaticResource("rc", core.StaticReliable()))
	eng.AddNode("Cascaded").AttachResource(core.NewStaticResource("rm", core.StaticReliable()))
	eng.AddNode("Subordinate").AttachResource(core.NewStaticResource("rl", core.StaticReliable()))
	tx = eng.Begin("Coordinator")
	must(tx.Send("Coordinator", "Cascaded", "work"))
	must(tx.Send("Cascaded", "Subordinate", "work"))
	tx.Commit("Coordinator")
	eng.FlushSessions()
	return "Two-Phase Commit Processing, All Resources Voted Reliable", eng,
		[]core.NodeID{"Coordinator", "Cascaded", "Subordinate"}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowtrace:", err)
		exit(1)
	}
}
