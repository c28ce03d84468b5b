// Travel: a booking tree with a cascaded coordinator — the agency
// coordinates flight, hotel (which cascades to a payment processor),
// and a read-only car-availability check — demonstrating the
// read-only optimization, and then the reliability difference between
// Presumed Nothing and Presumed Abort when a partitioned participant
// takes a heuristic decision: PN reports the damage to the root, PA
// (as in R*) absorbs it at the intermediate.
//
// Run with:
//
//	go run ./examples/travel
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	twopc "repro"
)

func main() {
	fmt.Println("== Booking a trip: agency -> {flight, hotel -> payments, car(read-only)} ==")
	bookTrip()

	fmt.Println("\n== Heuristic damage: who finds out? ==")
	fmt.Println("The payment processor is partitioned mid-commit and heuristically")
	fmt.Println("aborts while everyone else commits.")
	damageDemo(twopc.VariantPN)
	damageDemo(twopc.VariantPA)
}

func bookTrip() {
	eng := twopc.NewEngine(twopc.Config{Variant: twopc.VariantPA, Options: twopc.Options{ReadOnly: true}})
	agency := eng.AddNode("agency")
	flight := eng.AddNode("flight")
	hotel := eng.AddNode("hotel")
	payments := eng.AddNode("payments")
	car := eng.AddNode("car")

	itinerary := twopc.NewKVStore("itinerary", nil, eng)
	seats := twopc.NewKVStore("seats", nil, eng)
	rooms := twopc.NewKVStore("rooms", nil, eng)
	ledger := twopc.NewKVStore("ledger", nil, eng)
	fleet := twopc.NewKVStore("fleet", nil, eng)
	agency.AttachResource(itinerary)
	flight.AttachResource(seats)
	hotel.AttachResource(rooms)
	payments.AttachResource(ledger)
	car.AttachResource(fleet)

	// Seed car availability (earlier committed state).
	seed := eng.Begin("car")
	ctx := context.Background()
	must(fleet.Put(ctx, seed.ID(), "compact", "available"))
	if r := seed.Commit("car"); r.Outcome != twopc.OutcomeCommitted {
		log.Fatalf("seed: %+v", r)
	}

	carLogsBefore := eng.Metrics().Node("car").LogWrites

	tx := eng.Begin("agency")
	must(tx.Send("agency", "flight", "hold seat 12A"))
	must(tx.Send("agency", "hotel", "book 3 nights"))
	must(tx.Send("hotel", "payments", "authorize $420"))
	must(tx.Send("agency", "car", "check availability"))

	must(itinerary.Put(ctx, tx.ID(), "trip", "SJC->CDG"))
	must(seats.Put(ctx, tx.ID(), "12A", "held"))
	must(rooms.Put(ctx, tx.ID(), "room311", "booked"))
	must(ledger.Put(ctx, tx.ID(), "auth", "$420"))
	if _, err := fleet.Get(ctx, tx.ID(), "compact"); err != nil { // read-only participant
		log.Fatal(err)
	}

	res := tx.Commit("agency")
	fmt.Printf("booking: %v in %v (virtual)\n", res.Outcome, res.Latency)
	carStats := eng.Metrics().Node("car")
	fmt.Printf("the car server voted read-only: %d booking-transaction log writes\n",
		carStats.LogWrites-carLogsBefore)
	pay := eng.Metrics().Node("payments")
	fmt.Printf("the payment processor (under the hotel) did the full protocol: %d logs (%d forced)\n",
		pay.LogWrites, pay.ForcedWrites)
}

func damageDemo(variant twopc.Variant) {
	eng := twopc.NewEngine(twopc.Config{
		Variant:    variant,
		Options:    twopc.Options{ReadOnly: true},
		AckTimeout: 5 * time.Millisecond,
	})
	eng.AddNode("agency").AttachResource(twopc.NewStaticResource("itinerary"))
	eng.AddNode("hotel").AttachResource(twopc.NewStaticResource("rooms"))
	// The payment processor gives up quickly and heuristically aborts.
	eng.AddNode("payments", twopc.WithHeuristic(twopc.HeuristicPolicy{
		After: 8 * time.Millisecond, Commit: false,
	})).AttachResource(twopc.NewStaticResource("ledger"))

	tx := eng.Begin("agency")
	must(tx.Send("agency", "hotel", "book"))
	must(tx.Send("hotel", "payments", "authorize"))

	p := tx.CommitAsync("agency")
	// Run until payments has voted, then cut its link.
	for {
		prepared := false
		for _, rec := range eng.LogRecords("payments") {
			if rec.Kind == twopc.RecPrepared {
				prepared = true
			}
		}
		if prepared {
			break
		}
		if !eng.Step() {
			log.Fatal("payments never prepared")
		}
	}
	eng.Partition("hotel", "payments")
	eng.Schedule("hotel", 30*time.Millisecond, func() { eng.Heal("hotel", "payments") })
	eng.Drain()

	res, done := p.Result()
	if !done {
		log.Fatalf("%v: agency never resumed", variant)
	}
	fmt.Printf("\n[%v] agency sees: %v", variant, res.Outcome)
	if res.Status.Damaged() {
		fmt.Printf(" — heuristic damage reported by %s", res.Status.Heuristics[0].Node)
	} else if eng.Metrics().HeuristicDamageTotal() > 0 {
		fmt.Printf(" — but damage DID occur (%d decision(s)); the root was never told",
			eng.Metrics().HeuristicDamageTotal())
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
