// Package workload generates the transaction mixes the paper's
// motivating applications imply: flat and cascaded commit trees with
// configurable read-only / reliable / leave-out fractions, the
// end-of-day banking reconciliation chain behind the Long-Locks
// analysis (§4, ref [8]), and a travel-booking tree for the cascaded
// scenarios. Generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/protocol"
)

// MemberKind classifies a generated tree member.
type MemberKind int

// Member kinds.
const (
	Updater MemberKind = iota
	Reader             // votes read-only under PA/PN
	ReliableUpdater
	LeaveOutServer // reader that also promises OK-to-leave-out
)

// Member describes one generated participant.
type Member struct {
	ID     protocol.NodeID
	Parent protocol.NodeID // "" for the root
	Kind   MemberKind
}

// Tree is a generated commit tree.
type Tree struct {
	Root    protocol.NodeID
	Members []Member // excludes the root
}

// Size returns the member count including the root.
func (t Tree) Size() int { return len(t.Members) + 1 }

// Spec parameterizes tree generation.
type Spec struct {
	// N is the total member count (root included); minimum 2.
	N int
	// Depth limits cascade depth: 1 = flat tree. Parents are chosen
	// among nodes whose depth is < Depth.
	Depth int
	// ReadFraction in [0,1]: fraction of non-root members that are
	// pure readers.
	ReadFraction float64
	// ReliableFraction in [0,1]: fraction of updaters flagged
	// reliable.
	ReliableFraction float64
	// LeaveOutFraction in [0,1]: fraction of readers that promise
	// OK-to-leave-out.
	LeaveOutFraction float64
	// Seed makes generation reproducible.
	Seed int64
}

// Generate builds a tree per the spec.
func Generate(s Spec) Tree {
	if s.N < 2 {
		s.N = 2
	}
	if s.Depth < 1 {
		s.Depth = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	t := Tree{Root: "N00"}
	depth := map[protocol.NodeID]int{"N00": 0}
	// eligible parents by depth
	parents := []protocol.NodeID{"N00"}
	for i := 1; i < s.N; i++ {
		id := protocol.NodeID(fmt.Sprintf("N%02d", i))
		p := parents[rng.Intn(len(parents))]
		kind := Updater
		switch {
		case rng.Float64() < s.ReadFraction:
			kind = Reader
			if rng.Float64() < s.LeaveOutFraction {
				kind = LeaveOutServer
			}
		case rng.Float64() < s.ReliableFraction:
			kind = ReliableUpdater
		}
		t.Members = append(t.Members, Member{ID: id, Parent: p, Kind: kind})
		depth[id] = depth[p] + 1
		if depth[id] < s.Depth {
			parents = append(parents, id)
		}
	}
	return t
}

// Build instantiates the tree on a fresh engine: nodes, static
// resources matching each member's kind, and the data flows that
// establish the commit-tree edges. It returns the engine and the
// transaction, ready to commit at the root.
func (t Tree) Build(cfg core.Config) (*core.Engine, *core.Tx, error) {
	eng := core.NewEngine(cfg)
	eng.DisableTrace()
	root := eng.AddNode(t.Root)
	root.AttachResource(protocol.NewStaticResource("r@" + string(t.Root)))
	for _, m := range t.Members {
		n := eng.AddNode(m.ID)
		var opts []protocol.StaticOption
		switch m.Kind {
		case Reader:
			opts = append(opts, protocol.StaticVote(protocol.VoteReadOnly))
		case ReliableUpdater:
			opts = append(opts, protocol.StaticReliable())
		case LeaveOutServer:
			opts = append(opts, protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut())
		}
		n.AttachResource(protocol.NewStaticResource("r@"+string(m.ID), opts...))
	}
	tx := eng.Begin(t.Root)
	for _, m := range t.Members {
		if err := tx.Send(m.Parent, m.ID, "work"); err != nil {
			return nil, nil, fmt.Errorf("workload: build edge %s->%s: %w", m.Parent, m.ID, err)
		}
	}
	return eng, tx, nil
}

// Banking is the end-of-day reconciliation workload of §4 Long Locks
// (ref [8]): two banks exchanging r short chained transactions with
// negligible think time.
type Banking struct {
	Transactions int
	// Transfers per transaction (data messages before commit).
	TransfersPerTx int
}

// TravelBooking is the classic three-resource booking tree: a travel
// agency coordinating flight, hotel, and car servers, the hotel
// itself cascading to a payment processor.
type TravelBooking struct {
	// ReadOnlyCar marks the car server as a pure availability check.
	ReadOnlyCar bool
}

// Build constructs the booking tree on cfg.
func (tb TravelBooking) Build(cfg core.Config) (*core.Engine, *core.Tx, error) {
	eng := core.NewEngine(cfg)
	agency := eng.AddNode("agency")
	agency.AttachResource(protocol.NewStaticResource("itinerary"))
	eng.AddNode("flight").AttachResource(protocol.NewStaticResource("seats"))
	hotel := eng.AddNode("hotel")
	hotel.AttachResource(protocol.NewStaticResource("rooms"))
	eng.AddNode("payments").AttachResource(protocol.NewStaticResource("ledger"))
	carOpts := []protocol.StaticOption{}
	if tb.ReadOnlyCar {
		carOpts = append(carOpts, protocol.StaticVote(protocol.VoteReadOnly))
	}
	eng.AddNode("car").AttachResource(protocol.NewStaticResource("fleet", carOpts...))

	tx := eng.Begin("agency")
	for _, edge := range [][2]protocol.NodeID{
		{"agency", "flight"}, {"agency", "hotel"}, {"hotel", "payments"}, {"agency", "car"},
	} {
		if err := tx.Send(edge[0], edge[1], "book"); err != nil {
			return nil, nil, err
		}
	}
	return eng, tx, nil
}
