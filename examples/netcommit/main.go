// Netcommit: presumed-abort two-phase commit over real TCP sockets —
// three participants, each with its own listener, log, and
// transactional key-value store, running concurrently in goroutines.
// The same wire vocabulary (internal/protocol packets) that the
// deterministic simulator counts is here framed by the binary wire
// codec over TCP.
//
// Run with:
//
//	go run ./examples/netcommit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	twopc "repro"
	"repro/internal/clock"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

func main() {
	// Three endpoints on OS-assigned loopback ports.
	epC, err := netsim.ListenTCP("coordinator", "127.0.0.1:0")
	must(err)
	epW, err := netsim.ListenTCP("warehouse", "127.0.0.1:0")
	must(err)
	epB, err := netsim.ListenTCP("billing", "127.0.0.1:0")
	must(err)
	fmt.Printf("coordinator %s | warehouse %s | billing %s\n\n",
		epC.Addr(), epW.Addr(), epB.Addr())

	// Everyone learns everyone's address (a static registry).
	for _, pair := range [][2]*netsim.TCPEndpoint{
		{epC, epW}, {epC, epB}, {epW, epC}, {epW, epB}, {epB, epC}, {epB, epW},
	} {
		pair[0].Register(pair[1].Name(), pair[1].Addr())
	}

	// Each participant has a store and a log.
	kvC := twopc.NewKVStore("orders", nil, nil, twopc.KVLockWait(5*time.Second))
	kvW := twopc.NewKVStore("stock", nil, nil, twopc.KVLockWait(5*time.Second))
	kvB := twopc.NewKVStore("invoices", nil, nil, twopc.KVLockWait(5*time.Second))

	// One shared metrics registry watches all three participants; the
	// functional options also pick the variant, timeouts, and retry
	// policy (exponential backoff with jitter over TCP).
	reg := metrics.New()
	opts := []live.Option{
		live.WithVariant(protocol.VariantPA),
		live.WithMetrics(reg),
		live.WithTimeout(5*time.Second, 5*time.Second),
		live.WithRetry(clock.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond}),
	}
	coord := live.NewParticipant("coordinator", epC, wal.New(wal.NewMemStore()), []protocol.Resource{kvC}, opts...)
	warehouse := live.NewParticipant("warehouse", epW, wal.New(wal.NewMemStore()), []protocol.Resource{kvW}, opts...)
	billing := live.NewParticipant("billing", epB, wal.New(wal.NewMemStore()), []protocol.Resource{kvB}, opts...)
	coord.Start()
	warehouse.Start()
	billing.Start()
	defer coord.Stop()
	defer warehouse.Stop()
	defer billing.Stop()

	ctx := context.Background()

	// Order 1: everything in stock — commits across all three.
	tx1 := protocol.TxID{Origin: "coordinator", Seq: 1}
	must(kvC.Put(ctx, tx1, "order-1001", "widget x3"))
	must(kvW.Put(ctx, tx1, "widget", "stock 97"))
	must(kvB.Put(ctx, tx1, "invoice-1001", "$29.97"))

	out, err := coord.Commit(ctx, tx1.String(), []string{"warehouse", "billing"})
	must(err)
	fmt.Printf("order 1001: %v over TCP\n", out)
	if v, ok := kvW.ReadCommitted("widget"); ok {
		fmt.Printf("  warehouse sees: widget -> %q\n", v)
	}
	if v, ok := kvB.ReadCommitted("invoice-1001"); ok {
		fmt.Printf("  billing sees:  invoice-1001 -> %q\n", v)
	}

	// Order 2: billing only reads (credit check) — it votes read-only
	// and drops out of phase two.
	tx2 := protocol.TxID{Origin: "coordinator", Seq: 2}
	must(kvC.Put(ctx, tx2, "order-1002", "gizmo x1"))
	must(kvW.Put(ctx, tx2, "gizmo", "stock 41"))
	if _, err := kvB.Get(ctx, tx2, "invoice-1001"); err != nil {
		must(err)
	}
	out, err = coord.Commit(ctx, tx2.String(), []string{"warehouse", "billing"})
	must(err)
	fmt.Printf("order 1002: %v (billing voted read-only and skipped phase two)\n", out)

	// Order 3: a veto — the warehouse refuses, everything aborts.
	veto := protocol.NewStaticResource("out-of-stock", protocol.StaticVote(protocol.VoteNo))
	warehouseVeto := live.NewParticipant("warehouse2", mustEP("warehouse2", epC), wal.New(wal.NewMemStore()),
		[]protocol.Resource{veto})
	warehouseVeto.Start()
	defer warehouseVeto.Stop()

	tx3 := protocol.TxID{Origin: "coordinator", Seq: 3}
	must(kvC.Put(ctx, tx3, "order-1003", "doohickey x9"))
	out, err = coord.Commit(ctx, tx3.String(), []string{"warehouse2"})
	must(err)
	fmt.Printf("order 1003: %v (warehouse vetoed)\n", out)
	if _, ok := kvC.ReadCommitted("order-1003"); !ok {
		fmt.Println("  the coordinator's own write was rolled back too")
	}

	// What the metrics registry saw across all three orders.
	snap := reg.Snapshot()
	fmt.Printf("\nmetrics: outcomes=%v retries=%d in-doubt=%d\n",
		snap.Outcomes, snap.TotalRetries(), snap.TotalInDoubt())
	fmt.Printf("commit latency: p50=%v p99=%v max=%v over %d commits\n",
		snap.Latency.P50, snap.Latency.P99, snap.Latency.Max, snap.Latency.Count)
	for _, name := range []string{"coordinator", "warehouse", "billing"} {
		c := snap.Nodes[name]
		fmt.Printf("  %-12s msgs sent=%d received=%d forced-writes=%d\n",
			name, c.MessagesSent, c.MessagesReceived, c.ForcedWrites)
	}
}

// mustEP creates another TCP endpoint and cross-registers it with the
// coordinator.
func mustEP(name string, coord *netsim.TCPEndpoint) *netsim.TCPEndpoint {
	ep, err := netsim.ListenTCP(name, "127.0.0.1:0")
	must(err)
	coord.Register(name, ep.Addr())
	ep.Register(coord.Name(), coord.Addr())
	return ep
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
