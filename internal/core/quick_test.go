package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/protocol"
)

// Property-based tests over randomized trees, option sets, and
// failure schedules. Invariants:
//
//  1. Atomicity: absent heuristics, every non-read-only participant
//     that learns an outcome learns the same one.
//  2. Liveness: with bounded failures the event queue drains and the
//     root's application regains control.
//  3. Conservation: measured flow/log counts for a clean flat commit
//     equal the analytic formulas regardless of option mix.
//  4. Recovery: a crash of any single node at any protocol step,
//     followed by a restart, still yields a consistent outcome under
//     PA and PN.

// randomTree builds a random tree on eng, returning the edges.
type edge struct{ parent, child protocol.NodeID }

func buildRandomTree(eng *Engine, rng *rand.Rand, n int, readFrac float64) []edge {
	ids := make([]protocol.NodeID, n)
	for i := range ids {
		ids[i] = protocol.NodeID(fmt.Sprintf("N%02d", i))
		var opts []protocol.StaticOption
		if i > 0 && rng.Float64() < readFrac {
			opts = append(opts, protocol.StaticVote(protocol.VoteReadOnly))
		}
		eng.AddNode(ids[i]).AttachResource(protocol.NewStaticResource("r@"+string(ids[i]), opts...))
	}
	var edges []edge
	for i := 1; i < n; i++ {
		parent := ids[rng.Intn(i)] // any earlier node: arbitrary shape
		edges = append(edges, edge{parent, ids[i]})
	}
	return edges
}

func TestQuickAtomicityAcrossOptionMixes(t *testing.T) {
	prop := func(seed int64, optBits uint8, variantRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := protocol.Variant(int(variantRaw) % 4)
		n := 2 + int(nRaw%8)
		opts := Options{
			ReadOnly:       optBits&1 != 0 || variant != protocol.VariantBaseline,
			LastAgent:      optBits&2 != 0,
			VoteReliable:   optBits&8 != 0,
			EarlyAck:       optBits&16 != 0,
			WaitForOutcome: optBits&32 != 0,
		}
		eng := NewEngine(Config{Variant: variant, Options: opts})
		eng.DisableTrace()
		edges := buildRandomTree(eng, rng, n, 0.3)
		tx := eng.Begin("N00")
		inner := map[protocol.NodeID]bool{}
		for _, e := range edges {
			if err := tx.Send(e.parent, e.child, "w"); err != nil {
				return false
			}
			inner[e.parent] = true
		}
		if optBits&4 != 0 {
			// Some leaves vote unsolicited (§4 Unsolicited Vote).
			for _, e := range edges {
				if !inner[e.child] && rng.Intn(2) == 0 {
					if err := tx.UnsolicitedVote(e.child); err != nil {
						return false
					}
				}
			}
		}
		res := tx.Commit("N00")
		eng.FlushSessions()
		if res.Err != nil || res.Outcome != OutcomeCommitted {
			return false
		}
		// Atomicity: every participant with a known outcome agrees.
		for i := 0; i < n; i++ {
			id := protocol.NodeID(fmt.Sprintf("N%02d", i))
			if o, ok := eng.OutcomeAt(id, tx.ID()); ok && o != OutcomeCommitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAbortAtomicity(t *testing.T) {
	// One random participant votes NO: nobody may commit.
	prop := func(seed int64, variantRaw, nRaw, vetoRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := protocol.Variant(int(variantRaw) % 4)
		n := 3 + int(nRaw%6)
		veto := 1 + int(vetoRaw)%(n-1)
		opts := Options{ReadOnly: variant != protocol.VariantBaseline}
		eng := NewEngine(Config{Variant: variant, Options: opts})
		eng.DisableTrace()
		ids := make([]protocol.NodeID, n)
		for i := range ids {
			ids[i] = protocol.NodeID(fmt.Sprintf("N%02d", i))
			var sopts []protocol.StaticOption
			if i == veto {
				sopts = append(sopts, protocol.StaticVote(protocol.VoteNo))
			}
			eng.AddNode(ids[i]).AttachResource(protocol.NewStaticResource("r", sopts...))
		}
		tx := eng.Begin("N00")
		for i := 1; i < n; i++ {
			parent := ids[rng.Intn(i)]
			if err := tx.Send(parent, ids[i], "w"); err != nil {
				return false
			}
		}
		res := tx.Commit("N00")
		eng.FlushSessions()
		if res.Outcome != OutcomeAborted {
			return false
		}
		for i := 0; i < n; i++ {
			if o, ok := eng.OutcomeAt(ids[i], tx.ID()); ok && o == OutcomeCommitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlatTreeCountsMatchFormulas(t *testing.T) {
	// Clean flat commits: measured (flows, writes, forced) must equal
	// the closed-form table values for basic 2PC and PN at any size.
	prop := func(nRaw uint8, pn bool) bool {
		n := 2 + int(nRaw%14)
		variant := protocol.VariantBaseline
		if pn {
			variant = protocol.VariantPN
		}
		eng := NewEngine(Config{Variant: variant})
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
		for i := 1; i < n; i++ {
			eng.AddNode(protocol.NodeID(fmt.Sprintf("S%02d", i))).AttachResource(protocol.NewStaticResource("r"))
		}
		tx := eng.Begin("C")
		for i := 1; i < n; i++ {
			if err := tx.Send("C", protocol.NodeID(fmt.Sprintf("S%02d", i)), "w"); err != nil {
				return false
			}
		}
		if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
			return false
		}
		got := eng.Metrics().ProtocolTriplet()
		wantFlows := 4 * (n - 1)
		wantWrites := 3*n - 1
		wantForced := 2*n - 1
		if pn {
			wantWrites += n
			wantForced += n
		}
		return got.Flows == wantFlows && got.Writes == wantWrites && got.Forced == wantForced
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleCrashRecovery(t *testing.T) {
	// Crash one random node after a random number of protocol steps,
	// restart it shortly after, drain: under PA and PN every
	// participant that knows an outcome must agree with the root's
	// view (or with the presumption if the root never completed).
	prop := func(seed int64, stepRaw, victimRaw uint8, pn bool) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := protocol.VariantPA
		opts := Options{ReadOnly: true}
		if pn {
			variant = protocol.VariantPN
			opts = Options{}
		}
		const n = 4
		eng := NewEngine(Config{
			Variant:    variant,
			Options:    opts,
			AckTimeout: 5 * time.Millisecond,
		})
		eng.DisableTrace()
		edges := buildRandomTree(eng, rng, n, 0)
		tx := eng.Begin("N00")
		for _, e := range edges {
			if err := tx.Send(e.parent, e.child, "w"); err != nil {
				return false
			}
		}
		p := tx.CommitAsync("N00")

		steps := int(stepRaw % 24)
		for i := 0; i < steps; i++ {
			if !eng.Step() {
				break
			}
		}
		victim := protocol.NodeID(fmt.Sprintf("N%02d", int(victimRaw)%n))
		eng.Crash(victim)
		eng.Restart(victim, 10*time.Millisecond)
		eng.Drain()

		// Consistency: collect all known outcomes; committed and
		// aborted must not coexist.
		sawCommit, sawAbort := false, false
		for i := 0; i < n; i++ {
			id := protocol.NodeID(fmt.Sprintf("N%02d", i))
			if o, ok := eng.OutcomeAt(id, tx.ID()); ok {
				switch o {
				case OutcomeCommitted, OutcomeHeuristicMixed:
					sawCommit = true
				case OutcomeAborted:
					sawAbort = true
				}
			}
		}
		if sawCommit && sawAbort {
			return false
		}
		// No participant may be left in doubt after recovery drained
		// (heuristics are disabled, so recovery must have resolved
		// everything reachable).
		for i := 0; i < n; i++ {
			id := protocol.NodeID(fmt.Sprintf("N%02d", i))
			if eng.InDoubtAt(id, tx.ID()) {
				// Baseline could block; PA/PN must not, except a sub
				// whose coordinator's answer legitimately requires
				// inquiry retries that were capped. Accept in-doubt
				// only if the root never completed either.
				if _, done := p.Result(); done {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartitionConsistency(t *testing.T) {
	// Partition a random link mid-protocol and heal it later: with no
	// heuristics the tree must converge to one outcome.
	prop := func(seed int64, stepRaw uint8, pn bool) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := protocol.VariantPA
		opts := Options{ReadOnly: true}
		if pn {
			variant = protocol.VariantPN
			opts = Options{}
		}
		const n = 3
		eng := NewEngine(Config{Variant: variant, Options: opts, AckTimeout: 5 * time.Millisecond,
			VoteTimeout: 10 * time.Millisecond})
		eng.DisableTrace()
		edges := buildRandomTree(eng, rng, n, 0)
		tx := eng.Begin("N00")
		for _, e := range edges {
			if err := tx.Send(e.parent, e.child, "w"); err != nil {
				return false
			}
		}
		p := tx.CommitAsync("N00")
		for i := 0; i < int(stepRaw%16); i++ {
			if !eng.Step() {
				break
			}
		}
		cut := edges[rng.Intn(len(edges))]
		eng.Partition(cut.parent, cut.child)
		eng.Schedule(cut.parent, 40*time.Millisecond, func() { eng.Heal(cut.parent, cut.child) })
		eng.Drain()

		sawCommit, sawAbort := false, false
		for i := 0; i < n; i++ {
			id := protocol.NodeID(fmt.Sprintf("N%02d", i))
			if o, ok := eng.OutcomeAt(id, tx.ID()); ok {
				switch o {
				case OutcomeCommitted, OutcomeHeuristicMixed:
					sawCommit = true
				case OutcomeAborted:
					sawAbort = true
				}
			}
		}
		_ = p
		return !(sawCommit && sawAbort)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChainedTransactionsIndependent(t *testing.T) {
	// A sequence of chained transactions over the same session: each
	// commits independently and counts accumulate linearly.
	prop := func(rRaw uint8, longLocks bool) bool {
		r := 1 + int(rRaw%6)
		opts := Options{ReadOnly: true, LongLocks: longLocks}
		eng := NewEngine(Config{Variant: protocol.VariantPA, Options: opts})
		eng.DisableTrace()
		eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
		eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
		var pendings []*Pending
		for i := 0; i < r; i++ {
			tx := eng.Begin("C")
			if longLocks && i > 0 {
				if err := tx.Send("S", "C", "chain"); err != nil {
					return false
				}
			}
			if err := tx.Send("C", "S", "w"); err != nil {
				return false
			}
			p := tx.CommitAsync("C")
			eng.Drain()
			pendings = append(pendings, p)
		}
		eng.FlushSessions()
		for _, p := range pendings {
			if res, done := p.Result(); !done || res.Outcome != OutcomeCommitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
