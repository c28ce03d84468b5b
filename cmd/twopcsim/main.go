// Command twopcsim runs a configurable commit scenario on the
// deterministic simulator and reports the trace, metrics, and
// outcome. It is the exploration tool: pick a variant, toggle
// optimizations, shape the tree, inject failures, and watch what the
// protocol does.
//
// Examples:
//
//	twopcsim -variant pa -n 4 -readfrac 0.5
//	twopcsim -variant pn -n 3 -crash N01 -restart 10ms
//	twopcsim -variant pa -n 5 -readfrac 0.5 -opt readonly,lastagent -trace
//	twopcsim -variant pn -n 3 -heuristic-abort 8ms -partition N01 -heal 30ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

func main() {
	variant := flag.String("variant", "pa", "protocol variant: basic, pa, pn, pc, paxos, 1pc")
	n := flag.Int("n", 3, "participants including the coordinator")
	depth := flag.Int("depth", 1, "tree depth (1 = flat)")
	readFrac := flag.Float64("readfrac", 0, "fraction of members that are read-only")
	seed := flag.Int64("seed", 1, "workload seed")
	opts := flag.String("opt", "", "comma-separated optimizations: readonly,leaveout,lastagent,unsolicited,votereliable,longlocks,earlyack,waitforoutcome")
	abort := flag.Bool("abort", false, "abort instead of committing")
	showTrace := flag.Bool("trace", false, "print the full event trace")
	mermaid := flag.Bool("mermaid", false, "print the trace as a Mermaid sequence diagram")
	crash := flag.String("crash", "", "node to crash once it has prepared")
	restart := flag.Duration("restart", 0, "restart the crashed node after this delay")
	partition := flag.String("partition", "", "node to partition from its parent after it prepares")
	heal := flag.Duration("heal", 0, "heal the partition after this delay")
	heurAbort := flag.Duration("heuristic-abort", 0, "in-doubt nodes heuristically abort after this delay")
	heurCommit := flag.Duration("heuristic-commit", 0, "in-doubt nodes heuristically commit after this delay")
	flag.Parse()

	v, ok := protocol.ParseVariant(*variant)
	if !ok {
		fail("unknown variant %q", *variant)
	}
	cfg := core.Config{Variant: v}
	// The presumed variants run with read-only votes on, as the paper's
	// PA and PN rows do.
	cfg.Options.ReadOnly = v == protocol.VariantPA || v == protocol.VariantPN || v == protocol.VariantPC
	for _, o := range strings.Split(*opts, ",") {
		switch strings.TrimSpace(strings.ToLower(o)) {
		case "":
		case "readonly":
			cfg.Options.ReadOnly = true
		case "leaveout":
			cfg.Options.LeaveOut = true
		case "lastagent":
			cfg.Options.LastAgent = true
		case "unsolicited":
			cfg.Options.UnsolicitedVote = true
		case "votereliable":
			cfg.Options.VoteReliable = true
		case "longlocks":
			cfg.Options.LongLocks = true
		case "earlyack":
			cfg.Options.EarlyAck = true
		case "waitforoutcome":
			cfg.Options.WaitForOutcome = true
		default:
			fail("unknown optimization %q", o)
		}
	}

	tree := workload.Generate(workload.Spec{
		N: *n, Depth: *depth, ReadFraction: *readFrac, Seed: *seed,
	})
	eng := core.NewEngine(cfg)
	root := eng.AddNode(tree.Root)
	var heurPolicy core.HeuristicPolicy
	if *heurAbort > 0 {
		heurPolicy = core.HeuristicPolicy{After: *heurAbort, Commit: false}
	}
	if *heurCommit > 0 {
		heurPolicy = core.HeuristicPolicy{After: *heurCommit, Commit: true}
	}
	root.AttachResource(protocol.NewStaticResource("r@" + string(tree.Root)))
	nodeParent := map[protocol.NodeID]protocol.NodeID{}
	for _, m := range tree.Members {
		var nopts []core.NodeOption
		if heurPolicy.Enabled() {
			nopts = append(nopts, core.WithHeuristic(heurPolicy))
		}
		node := eng.AddNode(m.ID, nopts...)
		var ropts []protocol.StaticOption
		switch m.Kind {
		case workload.Reader:
			ropts = append(ropts, protocol.StaticVote(protocol.VoteReadOnly))
		case workload.LeaveOutServer:
			ropts = append(ropts, protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut())
		case workload.ReliableUpdater:
			ropts = append(ropts, protocol.StaticReliable())
		}
		node.AttachResource(protocol.NewStaticResource("r@"+string(m.ID), ropts...))
		nodeParent[m.ID] = m.Parent
	}

	tx := eng.Begin(tree.Root)
	for _, m := range tree.Members {
		if err := tx.Send(m.Parent, m.ID, "work"); err != nil {
			fail("send: %v", err)
		}
	}

	p := tx.CommitAsync(tree.Root)
	if *abort {
		// Replace with an abort initiation.
		p = nil
		res := tx.Abort(tree.Root)
		report(eng, res, *showTrace, *mermaid)
		return
	}

	if *crash != "" || *partition != "" {
		target := protocol.NodeID(*crash + *partition)
		// Step until the target prepares, then inject the failure.
		for {
			prepared := false
			for _, rec := range eng.LogRecords(target) {
				if rec.Kind == protocol.RecPrepared || rec.Kind == protocol.RecAgentPending {
					prepared = true
				}
			}
			if prepared {
				break
			}
			if !eng.Step() {
				break
			}
		}
		if *crash != "" {
			fmt.Printf("-- crashing %s --\n", target)
			eng.Crash(target)
			if *restart > 0 {
				eng.Restart(target, *restart)
			}
		} else {
			parent := nodeParent[target]
			fmt.Printf("-- partitioning %s from %s --\n", target, parent)
			eng.Partition(parent, target)
			if *heal > 0 {
				eng.Schedule(parent, *heal, func() { eng.Heal(parent, target) })
			}
		}
	}
	eng.Drain()
	eng.FlushSessions()

	res, done := p.Result()
	if !done {
		res = core.Result{Outcome: core.OutcomePending, Err: core.ErrIncomplete}
	}
	report(eng, res, *showTrace, *mermaid)
}

func report(eng *core.Engine, res core.Result, showTrace, mermaid bool) {
	if mermaid {
		fmt.Println("```mermaid")
		fmt.Print(eng.Trace().Mermaid())
		fmt.Println("```")
	} else if showTrace {
		fmt.Println(eng.Trace().Render())
	}
	fmt.Printf("outcome:   %v", res.Outcome)
	if res.Err != nil {
		fmt.Printf(" (%v)", res.Err)
	}
	fmt.Println()
	fmt.Printf("latency:   %v (virtual)\n", res.Latency)
	if res.Status.RecoveryPending {
		fmt.Println("note:      recovery still in progress when the application resumed")
	}
	for _, h := range res.Status.Heuristics {
		fmt.Printf("heuristic: node %s decided %v; damage=%v\n", h.Node, outcomeWord(h.Committed), h.Damage)
	}
	fmt.Println()
	fmt.Print(eng.Metrics().Summary())
	t := eng.Metrics().ProtocolTriplet()
	fmt.Printf("\nprotocol flows: %d, log writes: %d (%d forced)\n", t.Flows, t.Writes, t.Forced)
}

func outcomeWord(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twopcsim: "+format+"\n", args...)
	os.Exit(1)
}
