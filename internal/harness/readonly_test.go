package harness

import (
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/protocol"
)

// TestReadOnlyFormsMatchSimulator holds the read-only commit forms the
// runtime audit uses (analytic.CoordCommitCost, ReadOnlySubCost) to the
// simulator's per-node counts, for every classic variant and every
// read-only shape of a flat tree of up to three subordinates: a
// coordinator with no subordinates, one whose subordinates all voted
// read-only, and mixes of read-only and yes voters, with the
// coordinator's own resource read-only or updating.
func TestReadOnlyFormsMatchSimulator(t *testing.T) {
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.Variant1PC}
	for _, v := range variants {
		for subs := 0; subs <= 3; subs++ {
			for roSubs := 0; roSubs <= subs; roSubs++ {
				for _, coordRO := range []bool{false, true} {
					name := fmt.Sprintf("%s/subs=%d/ro=%d/coordRO=%v", v, subs, roSubs, coordRO)
					t.Run(name, func(t *testing.T) {
						checkReadOnlyShape(t, v, subs, roSubs, coordRO)
					})
				}
			}
		}
	}
}

func checkReadOnlyShape(t *testing.T, v protocol.Variant, subs, roSubs int, coordRO bool) {
	eng := core.NewEngine(core.Config{Variant: v, Options: core.Options{ReadOnly: true}})
	eng.DisableTrace()
	res := func(name string, ro bool) protocol.Resource {
		if ro {
			return protocol.NewStaticResource(name, protocol.StaticVote(protocol.VoteReadOnly))
		}
		return protocol.NewStaticResource(name)
	}
	eng.AddNode("C").AttachResource(res("rC", coordRO))
	names := make([]protocol.NodeID, subs)
	for i := range names {
		names[i] = protocol.NodeID(fmt.Sprintf("S%d", i+1))
		eng.AddNode(names[i]).AttachResource(res("r"+string(names[i]), i < roSubs))
	}
	tx := eng.Begin("C")
	for _, n := range names {
		if err := tx.Send("C", n, "work"); err != nil {
			t.Fatal(err)
		}
	}
	if r := tx.Commit("C"); r.Outcome != core.OutcomeCommitted {
		t.Fatalf("outcome %v (%v)", r.Outcome, r.Err)
	}
	eng.FlushSessions()
	measured := func(n protocol.NodeID) analytic.Triplet {
		c := eng.Metrics().Node(string(n))
		return analytic.Triplet{Flows: c.ProtocolPackets, Writes: c.LogWrites, Forced: c.ForcedWrites}
	}

	want, ok := analytic.CoordCommitCost(v.String(), subs, subs-roSubs, coordRO)
	if !ok {
		t.Fatalf("no coordinator form for %s", v)
	}
	if got := measured("C"); got != want {
		t.Errorf("coordinator measured (%v), form (%v)", got, want)
	}
	rc, _ := analytic.CommitCostByRole(v.String(), subs)
	sub := rc.Subordinate
	if v == protocol.VariantPN {
		// The simulator writes the paper's PN: every yes-voter also
		// forces its AgentPending record (analytic.PN, not PNLive).
		sub = sub.Add(analytic.Triplet{Writes: 1, Forced: 1})
	}
	for i, n := range names {
		w := sub
		if i < roSubs {
			w = analytic.ReadOnlySubCost()
		}
		if got := measured(n); got != w {
			t.Errorf("%s measured (%v), form (%v)", n, got, w)
		}
	}
}
