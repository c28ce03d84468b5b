package audit_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/audit"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestLiveConformanceReadOnlyShapes commits every read-only shape
// under each variant on a live cluster whose nodes keep a ledger each,
// as daemons do: a coordinator with no subordinates, one whose two
// subordinates both vote read-only, and the mixes, with the
// coordinator's own resource read-only or updating. Every node's
// ledger must empty (a read-only voter's entry closes at its vote,
// with no outcome), and every entry must match its form exactly.
func TestLiveConformanceReadOnlyShapes(t *testing.T) {
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.Variant1PC, protocol.VariantPaxos}
	for _, v := range variants {
		for _, subs := range []int{0, 2} {
			for roSubs := 0; roSubs <= subs; roSubs++ {
				for _, coordRO := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/subs=%d/ro=%d/coordRO=%v", v, subs, roSubs, coordRO), func(t *testing.T) {
						checkLiveVoteShape(t, v, subs, roSubs, 0, coordRO)
					})
				}
			}
		}
	}
}

// TestLiveConformanceVolunteers commits, under PA and Basic 2PC, the
// shapes in which m of two subordinates vote unsolicited, m = 0-2, the
// way the serving path does it (Volunteer, then PostVotes before
// Commit), with every read-only mix and the coordinator's own resource
// read-only or updating. Each node's entry matches its form exactly,
// and the tree spends analytic.UnsolicitedVote(3, m) when every vote
// is yes (CommitCostByVotes with the read-only voters otherwise).
func TestLiveConformanceVolunteers(t *testing.T) {
	const subs = 2
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA} {
		for m := 0; m <= subs; m++ {
			for roSubs := 0; roSubs <= subs; roSubs++ {
				for _, coordRO := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/m=%d/ro=%d/coordRO=%v", v, m, roSubs, coordRO), func(t *testing.T) {
						got := checkLiveVoteShape(t, v, subs, roSubs, m, coordRO)
						if want := analytic.UnsolicitedVote(subs+1, m); roSubs == 0 && !coordRO && got != want {
							t.Fatalf("tree spent (%v), UnsolicitedVote (%v)", got, want)
						}
					})
				}
			}
		}
	}
}

// checkLiveVoteShape commits one transaction of a coordinator C over
// subs subordinates, the last roSubs of which vote read-only and the
// first volunteers of which vote unsolicited, and holds every node's
// ledger to its form and the tree to CommitCostByVotes. It returns the
// tree's spend.
func checkLiveVoteShape(t *testing.T, v protocol.Variant, subs, roSubs, volunteers int, coordRO bool) analytic.Triplet {
	net := netsim.NewChanNetwork()
	type node struct {
		name string
		reg  *metrics.Registry
		log  *wal.Log
	}
	var nodes []node
	mk := func(name string, ro bool) *live.Participant {
		res := protocol.NewStaticResource("r@" + name)
		if ro {
			res = protocol.NewStaticResource("r@"+name, protocol.StaticVote(protocol.VoteReadOnly))
		}
		n := node{name: name, reg: metrics.New(), log: wal.New(wal.NewMemStore())}
		nodes = append(nodes, n)
		p := live.NewParticipant(name, net.Endpoint(name), n.log, []protocol.Resource{res}, live.WithMetrics(n.reg))
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p
	}
	c := mk("C", coordRO)
	var (
		subNames []string
		votes    []live.Vote
	)
	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	for i := 0; i < subs; i++ {
		name := fmt.Sprintf("S%d", i+1)
		s := mk(name, i >= subs-roSubs)
		subNames = append(subNames, name)
		if i < volunteers {
			vote, err := s.Volunteer(tx, v)
			if err != nil {
				t.Fatal(err)
			}
			votes = append(votes, live.Vote{From: name, Vote: vote})
		}
	}
	c.PostVotes(tx, votes)
	if out, err := c.CommitVariant(context.Background(), tx, subNames, v); err != nil || out != live.Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}

	for _, n := range nodes {
		var views []metrics.TxCostView
		deadline := time.Now().Add(5 * time.Second)
		for n.reg.CostLedgerSize() > 0 || len(views) == 0 {
			views = append(views, n.reg.CostDrainClosed()...)
			if time.Now().After(deadline) {
				t.Fatalf("%s: ledger still holds %+v", n.name, n.reg.CostSnapshot())
			}
			time.Sleep(time.Millisecond)
		}
		rep := audit.Conformance(views)
		if !rep.OK() || len(views) != 1 || rep.Checked != 1 || rep.Exact != 1 {
			t.Fatalf("%s: %d views, %s", n.name, len(views), rep)
		}
	}

	// The whole tree logs what the forms say, and a round in which
	// every vote was read-only under PA or Basic 2PC logs nothing.
	want, _ := analytic.CommitCostByVotes(v.String(), subs, roSubs, volunteers, coordRO)
	var got analytic.Triplet
	for _, n := range nodes {
		snap := n.reg.Snapshot().Nodes[n.name]
		got = got.Add(analytic.Triplet{Flows: snap.MessagesSent, Writes: snap.LogWrites, Forced: snap.ForcedWrites})
	}
	if got != want {
		t.Fatalf("tree spent (%v), CommitCostByVotes (%v)", got, want)
	}
	if coordRO && roSubs == subs && (v == protocol.VariantPA || v == protocol.VariantBaseline) {
		if recs, _ := nodes[0].log.Store().Records(); len(recs) != 0 {
			t.Fatalf("read-only coordinator logged %d records", len(recs))
		}
	}
	return got
}

// TestLiveReadOnlyVoterRepeatsVoteAsExtra: a read-only voter leaves the
// transaction at its vote, keeping only the vote, so a retransmitted
// Prepare is answered from it with a second read-only vote. That vote
// is an extra flow and the voter's entry stays exact, as it must when a
// coordinator's vote collection retransmits under load.
func TestLiveReadOnlyVoterRepeatsVoteAsExtra(t *testing.T) {
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	s := live.NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("r@S", protocol.StaticVote(protocol.VoteReadOnly))}, live.WithMetrics(reg))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	x := net.Endpoint("X")
	tx := protocol.TxID{Origin: "X", Seq: 1}.String()
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: tx, Presume: protocol.VariantPA}
	for i := 0; i < 2; i++ {
		if err := x.Send("S", protocol.Packet{From: "X", To: "S", Messages: []protocol.Message{prep}}); err != nil {
			t.Fatal(err)
		}
		select {
		case pkt := <-x.Recv():
			if m := pkt.Messages[0]; m.Type != protocol.MsgVote || m.Vote != protocol.VoteReadOnly {
				t.Fatalf("Prepare %d answered %+v, want a read-only vote", i+1, m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Prepare %d unanswered", i+1)
		}
		// The retransmission comes after the vote's handler is done.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if views := reg.CostSnapshot(); len(views) == 1 && views[0].Closed() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("vote %d never closed the entry: %+v", i+1, reg.CostSnapshot())
			}
		}
	}
	views := reg.CostDrainClosed()
	if len(views) != 1 {
		t.Fatalf("drained %+v, want one closed entry", views)
	}
	if n := views[0].Node("S"); n.Flows != 1 || n.Extra != 1 {
		t.Fatalf("read-only voter spent %+v, want 1 flow and 1 extra", n.CostCounters)
	}
	if rep := audit.Conformance(views); !rep.OK() || rep.Exact != 1 {
		t.Fatalf("audit: %s", rep)
	}
}
