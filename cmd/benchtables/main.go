// Command benchtables regenerates the paper's evaluation tables from
// live protocol runs, printing the paper's (formula) values next to
// the measured counts.
//
// Usage:
//
//	benchtables -table 1          qualitative matrix with measured evidence
//	benchtables -table 2          per-variant two-participant costs
//	benchtables -table 3 [-n 11 -m 4]
//	benchtables -table 4 [-r 12]
//	benchtables -table groupcommit [-txs 48]
//	benchtables -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/protocol"
)

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, 4, groupcommit")
	split := flag.Bool("split", false, "table 2: print the paper's per-role layout")
	all := flag.Bool("all", false, "regenerate every table")
	n := flag.Int("n", 11, "table 3: tree size")
	m := flag.Int("m", 4, "table 3: optimized members")
	r := flag.Int("r", 12, "table 4: chained transactions")
	txs := flag.Int("txs", 48, "group commit: concurrent transactions")
	flag.Parse()

	run := func(which string) {
		switch which {
		case "1":
			table1()
		case "2":
			if *split {
				rows, err := harness.Table2Split()
				exitOn(err)
				fmt.Println(harness.RenderSplitRows("Table 2 — per-role costs (coordinator | subordinate), as printed in the paper", rows))
				return
			}
			rows, err := harness.Table2()
			exitOn(err)
			fmt.Println(harness.RenderRows("Table 2 — logging and network traffic of 2PC optimizations (2 participants, totals)", rows))
		case "3":
			rows, err := harness.Table3(*n, *m)
			exitOn(err)
			fmt.Println(harness.RenderRows(fmt.Sprintf("Table 3 — costs for n=%d participants, m=%d optimized", *n, *m), rows))
		case "4":
			rows, err := harness.Table4(*r)
			exitOn(err)
			fmt.Println(harness.RenderRows(fmt.Sprintf("Table 4 — long-locks chains, r=%d transactions of 2 members", *r), rows))
		case "groupcommit":
			rows, err := harness.GroupCommitTable(*txs, []int{1, 2, 4, 8, 16})
			exitOn(err)
			fmt.Printf("Group commit — %d transactions, 3 forces each (paper: savings ≈ 3n(1-1/m))\n", *txs)
			fmt.Printf("%-10s %-12s %-14s %-10s\n", "group m", "paper syncs", "measured", "savings")
			fmt.Println(strings.Repeat("-", 50))
			for _, row := range rows {
				fmt.Printf("%-10d %-12d %-14d %-10d\n", row.GroupSize, row.PaperSyncs, row.MeasuredSyncs, row.Savings)
			}
			fmt.Println()
		case "failures":
			cells, err := harness.FailureMatrix()
			exitOn(err)
			fmt.Println(harness.RenderFailureMatrix(cells))
		case "sweeps":
			rf, err := harness.ReadFractionSweep(11, []float64{0, 0.25, 0.5, 0.75, 1})
			exitOn(err)
			fmt.Println(rf.Render())
			sat, err := harness.SatelliteSweep([]time.Duration{
				time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond,
			})
			exitOn(err)
			fmt.Println(sat.Render())
			ts, err := harness.TreeSizeSweep([]int{2, 3, 5, 8, 11, 16})
			exitOn(err)
			fmt.Println(ts.Render())
		default:
			fmt.Fprintf(os.Stderr, "benchtables: unknown table %q\n", which)
			os.Exit(2)
		}
	}

	switch {
	case *all:
		for _, w := range []string{"1", "2", "3", "4", "groupcommit", "sweeps", "failures"} {
			run(w)
		}
	case *table != "":
		run(*table)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// table1 reprints the paper's qualitative matrix, attaching one
// measured data point per claim.
func table1() {
	fmt.Println("Table 1 — advantages and disadvantages of 2PC optimizations (with measured evidence)")
	fmt.Println(strings.Repeat("-", 100))
	type row struct {
		opt, adv, dis, evidence string
	}
	rows := []row{
		{"Read Only", "fewer messages/log writes, early lock release",
			"outcome unknown to voter; serializability hazard", evidenceReadOnly()},
		{"Last Agent", "fewer messages, early lock release",
			"one extra forced write possible (PA); serializes the delegated link", evidenceLastAgent()},
		{"Unsolicited Vote", "fewer messages", "application must know when it is done", evidenceUnsolicited()},
		{"OK To Leave Out", "no log writes, no messages for idle partners",
			"suspended partner cannot initiate work", evidenceLeaveOut()},
		{"Vote Reliable", "fewer message flows",
			"damage report lost if a 'reliable' resource does decide heuristically", evidenceVoteReliable()},
		{"Wait For Outcome", "2PC does not block on most partitions",
			"outcome may be reported pending", evidenceWaitForOutcome()},
		{"Long Locks", "fewer network flows",
			"locks held across transaction boundaries", evidenceLongLocks()},
		{"Shared Logs", "fewer forced writes", "RM/TM independence sacrificed", "see kvstore shared-log tests"},
		{"Group Commit", "fewer forced writes, higher throughput",
			"longer per-transaction lock hold", evidenceGroupCommit()},
	}
	for _, r := range rows {
		fmt.Printf("%s\n  + %s\n  - %s\n  measured: %s\n\n", r.opt, r.adv, r.dis, r.evidence)
	}
}

func pairRun(cfg core.Config, resOpts ...protocol.StaticOption) (*core.Engine, core.Result) {
	eng := core.NewEngine(cfg)
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", resOpts...))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs", resOpts...))
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "w"); err != nil {
		exitOn(err)
	}
	res := tx.Commit("C")
	eng.FlushSessions()
	return eng, res
}

func evidenceReadOnly() string {
	base, _ := pairRun(core.Config{Variant: protocol.VariantBaseline})
	ro, _ := pairRun(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
		protocol.StaticVote(protocol.VoteReadOnly))
	b, o := base.Metrics().ProtocolTriplet(), ro.Metrics().ProtocolTriplet()
	return fmt.Sprintf("flows %d→%d, forced %d→%d for an all-read-only pair", b.Flows, o.Flows, b.Forced, o.Forced)
}

func evidenceLastAgent() string {
	base, rb := pairRun(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}})
	la, rl := pairRun(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, LastAgent: true}})
	b, l := base.Metrics().ProtocolTriplet(), la.Metrics().ProtocolTriplet()
	return fmt.Sprintf("flows %d→%d, latency %v→%v, forced %d→%d",
		b.Flows, l.Flows, rb.Latency, rl.Latency, b.Forced, l.Forced)
}

func evidenceUnsolicited() string {
	eng := core.NewEngine(core.Config{Variant: protocol.VariantPA,
		Options: core.Options{ReadOnly: true}})
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	exitOn(tx.Send("C", "S", "w"))
	exitOn(tx.UnsolicitedVote("S"))
	tx.Commit("C")
	t := eng.Metrics().ProtocolTriplet()
	return fmt.Sprintf("flows %d (vs 4 baseline): the Prepare flow vanished", t.Flows)
}

func evidenceLeaveOut() string {
	eng := core.NewEngine(core.Config{Variant: protocol.VariantPN, Options: core.Options{ReadOnly: true, LeaveOut: true}})
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs",
		protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut()))
	tx1 := eng.Begin("C")
	exitOn(tx1.Send("C", "S", "w"))
	tx1.Commit("C")
	before := eng.Metrics().Node("S").MessagesReceived
	tx2 := eng.Begin("C")
	tx2.Commit("C")
	after := eng.Metrics().Node("S").MessagesReceived
	return fmt.Sprintf("second transaction sent the dormant partner %d messages", after-before)
}

func evidenceVoteReliable() string {
	vr, _ := pairRun(core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}},
		protocol.StaticReliable())
	t := vr.Metrics().ProtocolTriplet()
	return fmt.Sprintf("flows %d (vs 4): the commit ack became implied", t.Flows)
}

func evidenceWaitForOutcome() string {
	eng := core.NewEngine(core.Config{Variant: protocol.VariantPN,
		Options: core.Options{WaitForOutcome: true}, AckTimeout: 2 * time.Millisecond})
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	exitOn(tx.Send("C", "S", "w"))
	p := tx.CommitAsync("C")
	// Crash S after it prepares, so the ack never arrives.
	for {
		prepared := false
		for _, rec := range eng.LogRecords("S") {
			if rec.Kind == protocol.RecPrepared {
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
	eng.Crash("S")
	eng.Drain()
	if r, done := p.Result(); done && r.Status.RecoveryPending {
		return fmt.Sprintf("application resumed in %v with outcome-pending despite a dead subordinate", r.Latency)
	}
	return "application resumed with pending indication"
}

func evidenceLongLocks() string {
	rows, err := harness.Table4(12)
	exitOn(err)
	return fmt.Sprintf("r=12 chain: %s flows vs %s basic",
		rows[1].Measured, rows[0].Measured)
}

func evidenceGroupCommit() string {
	rows, err := harness.GroupCommitTable(48, []int{1, 8})
	exitOn(err)
	return fmt.Sprintf("48 txs: %d syncs ungrouped → %d at group size 8",
		rows[0].MeasuredSyncs, rows[1].MeasuredSyncs)
}
