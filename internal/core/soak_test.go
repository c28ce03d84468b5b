package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestSoakRandomizedLifetime runs one long-lived engine through
// hundreds of transactions with randomized trees, option-relevant
// resource mixes, occasional vetoes, crashes, and partitions —
// asserting global invariants at every step:
//
//   - no commit/abort divergence ever (atomicity);
//   - the event queue always drains (liveness);
//   - the engine stays usable after every failure (isolation).
func TestSoakRandomizedLifetime(t *testing.T) {
	for _, variant := range []protocol.Variant{protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		t.Run(variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(variant)))
			opts := Options{ReadOnly: true}
			eng := NewEngine(Config{
				Variant:     variant,
				Options:     opts,
				AckTimeout:  4 * time.Millisecond,
				VoteTimeout: 12 * time.Millisecond,
			})
			eng.DisableTrace()
			const nodes = 6
			ids := make([]protocol.NodeID, nodes)
			for i := range ids {
				ids[i] = protocol.NodeID(fmt.Sprintf("N%d", i))
				eng.AddNode(ids[i]).AttachResource(protocol.NewStaticResource("r@" + string(ids[i])))
			}
			// Sessions form a fixed spanning tree (the LU 6.2
			// conversation topology): node i's session parent is a
			// random earlier node. Any node may then initiate a commit;
			// the commit tree is the session tree re-rooted there.
			adj := make(map[protocol.NodeID][]protocol.NodeID)
			for i := 1; i < nodes; i++ {
				p := ids[rng.Intn(i)]
				adj[p] = append(adj[p], ids[i])
				adj[ids[i]] = append(adj[ids[i]], p)
			}

			const rounds = 150
			committed, aborted, incomplete := 0, 0, 0
			for round := 0; round < rounds; round++ {
				rootIdx := rng.Intn(nodes)
				root := ids[rootIdx]
				tx := eng.Begin(root)
				// Send data along the session tree, oriented away from
				// this round's root (BFS), so the whole tree is active.
				var used []protocol.NodeID
				visited := map[protocol.NodeID]bool{root: true}
				frontier := []protocol.NodeID{root}
				for len(frontier) > 0 {
					cur := frontier[0]
					frontier = frontier[1:]
					for _, nb := range adj[cur] {
						if visited[nb] {
							continue
						}
						visited[nb] = true
						if err := tx.Send(cur, nb, "w"); err != nil {
							t.Fatalf("round %d send: %v", round, err)
						}
						used = append(used, nb)
						frontier = append(frontier, nb)
					}
				}

				p := tx.CommitAsync(ids[rootIdx])
				// Random mid-protocol failure on ~1 in 4 rounds.
				switch rng.Intn(8) {
				case 0:
					victim := used[rng.Intn(len(used))]
					steps := rng.Intn(6)
					for i := 0; i < steps; i++ {
						if !eng.Step() {
							break
						}
					}
					eng.Crash(victim)
					eng.Restart(victim, time.Duration(1+rng.Intn(8))*time.Millisecond)
				case 1:
					victim := used[rng.Intn(len(used))]
					steps := rng.Intn(6)
					for i := 0; i < steps; i++ {
						if !eng.Step() {
							break
						}
					}
					eng.Partition(ids[rootIdx], victim)
					eng.Schedule(ids[rootIdx], time.Duration(10+rng.Intn(20))*time.Millisecond,
						func() { eng.Heal(ids[rootIdx], victim) })
				}
				eng.Drain()

				res, done := p.Result()
				switch {
				case !done:
					incomplete++
				case res.Outcome == OutcomeCommitted:
					committed++
				case res.Outcome == OutcomeAborted:
					aborted++
				}

				// Global invariant: all known outcomes for this tx agree.
				sawCommit, sawAbort := false, false
				for _, id := range ids {
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
					t.Fatalf("round %d (%v): divergence", round, variant)
				}
			}
			t.Logf("%v soak: %d committed, %d aborted, %d incomplete over %d rounds",
				variant, committed, aborted, incomplete, rounds)
			// Injected failures legitimately abort a sizable share of
			// rounds (a crash during phase one is an abort); the
			// invariant is consistency, the floor is just sanity.
			if committed < rounds/3 {
				t.Fatalf("too few commits: %d/%d", committed, rounds)
			}
			// The engine must still work perfectly after the soak.
			final := eng.Begin(ids[0])
			if err := final.Send(ids[0], ids[1], "final"); err != nil {
				t.Fatal(err)
			}
			if res := final.Commit(ids[0]); res.Outcome != OutcomeCommitted {
				t.Fatalf("post-soak commit: %+v", res)
			}
		})
	}
}
