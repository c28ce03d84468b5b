// Package integration ties the full stack together: the protocol
// engine (internal/core) driving real kvstore resource managers with
// their own write-ahead logs and lock managers, across commit, abort,
// crash/recovery, shared-log, and the paper's read-only serialization
// hazard.
package integration

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lockmgr"
	"repro/internal/protocol"
	"repro/internal/wal"
)

var bg = context.Background()

// cluster is a three-node engine with one kvstore per node.
type cluster struct {
	eng  *core.Engine
	logs map[protocol.NodeID]*wal.Log
	kvs  map[protocol.NodeID]*kvstore.Store
}

func newCluster(t *testing.T, cfg core.Config, sharedLog bool, nodes ...protocol.NodeID) *cluster {
	t.Helper()
	eng := core.NewEngine(cfg)
	c := &cluster{eng: eng, logs: map[protocol.NodeID]*wal.Log{}, kvs: map[protocol.NodeID]*kvstore.Store{}}
	for _, id := range nodes {
		n := eng.AddNode(id)
		var log *wal.Log
		if sharedLog {
			log = n.Log() // the LRM shares the TM's log (§4 Sharing the Log)
		} else {
			log = wal.New(wal.NewMemStore())
			n.ObserveLog(log)
		}
		kv := kvstore.New("db@"+string(id), log, eng.Clock(),
			kvstore.WithSharedLog(sharedLog),
			kvstore.WithReadOnlyVotes(cfg.Options.ReadOnly))
		n.AttachResource(kv)
		c.logs[id] = log
		c.kvs[id] = kv
	}
	return c
}

func TestDistributedCommitAppliesEverywhere(t *testing.T) {
	cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, false, "A", "B", "C")
	tx := cl.eng.Begin("A")
	if err := tx.Send("A", "B", "w"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send("A", "C", "w"); err != nil {
		t.Fatal(err)
	}
	id := tx.ID()
	if err := cl.kvs["A"].Put(bg, id, "acct:alice", "100"); err != nil {
		t.Fatal(err)
	}
	if err := cl.kvs["B"].Put(bg, id, "acct:bob", "200"); err != nil {
		t.Fatal(err)
	}
	if err := cl.kvs["C"].Put(bg, id, "acct:carol", "300"); err != nil {
		t.Fatal(err)
	}
	res := tx.Commit("A")
	if res.Outcome != core.OutcomeCommitted {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	if v, _ := cl.kvs["B"].ReadCommitted("acct:bob"); v != "200" {
		t.Errorf("bob = %q", v)
	}
	if v, _ := cl.kvs["C"].ReadCommitted("acct:carol"); v != "300" {
		t.Errorf("carol = %q", v)
	}
}

func TestDistributedAbortDiscardsEverywhere(t *testing.T) {
	cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, false, "A", "B")
	tx := cl.eng.Begin("A")
	tx.Send("A", "B", "w")
	id := tx.ID()
	cl.kvs["A"].Put(bg, id, "x", "1")
	cl.kvs["B"].Put(bg, id, "y", "2")
	res := tx.Abort("A")
	if res.Outcome != core.OutcomeAborted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if _, ok := cl.kvs["A"].ReadCommitted("x"); ok {
		t.Error("A kept aborted write")
	}
	if _, ok := cl.kvs["B"].ReadCommitted("y"); ok {
		t.Error("B kept aborted write")
	}
}

func TestNoWritesVotesReadOnlyThroughEngine(t *testing.T) {
	cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, false, "A", "B")
	// Seed data at B.
	seed := cl.eng.Begin("B")
	cl.kvs["B"].Put(bg, seed.ID(), "k", "v")
	if res := seed.Commit("B"); res.Outcome != core.OutcomeCommitted {
		t.Fatalf("seed: %+v", res)
	}

	tx := cl.eng.Begin("A")
	tx.Send("A", "B", "r")
	id := tx.ID()
	cl.kvs["A"].Put(bg, id, "out", "written")
	if _, err := cl.kvs["B"].Get(bg, id, "k"); err != nil {
		t.Fatal(err)
	}
	base := cl.logs["B"].Stats()
	res := tx.Commit("A")
	if res.Outcome != core.OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// B was read-only: its LRM logged nothing for this transaction.
	if after := cl.logs["B"].Stats(); after.Appends != base.Appends {
		t.Errorf("read-only B logged %d records", after.Appends-base.Appends)
	}
	// And B's TM sent a single flow (its read-only vote).
	if mc := cl.eng.Metrics().Node("B"); mc.MessagesSent < 1 {
		t.Errorf("B metrics: %+v", mc)
	}
}

func TestSharedLogSavesLRMForces(t *testing.T) {
	run := func(shared bool) wal.Stats {
		cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, shared, "A", "B")
		tx := cl.eng.Begin("A")
		tx.Send("A", "B", "w")
		id := tx.ID()
		cl.kvs["B"].Put(bg, id, "k", "v")
		cl.kvs["A"].Put(bg, id, "j", "u")
		if res := tx.Commit("A"); res.Outcome != core.OutcomeCommitted {
			t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
		}
		return cl.logs["B"].Stats()
	}
	separate := run(false)
	shared := run(true)
	// Separate log: LRM forces prepared + committed itself (2).
	if separate.Forces != 2 {
		t.Fatalf("separate-log LRM forces = %d, want 2", separate.Forces)
	}
	// Shared log: the B log carries both TM and LRM records; only the
	// TM's own forces remain (prepared + committed at the TM level).
	if shared.Forces != 2 {
		t.Fatalf("shared-log total forces = %d, want 2 (TM only)", shared.Forces)
	}
	// Crucially the shared log hardened the LRM records with the same
	// two syncs: no extra physical syncs for the LRM.
	if shared.Syncs > separate.Syncs {
		t.Fatalf("shared log used more syncs (%d) than separate (%d)", shared.Syncs, separate.Syncs)
	}
}

func TestSerializationAnomalyFromReadOnlyEarlyRelease(t *testing.T) {
	// The paper's §4 Read Only drawback: Pa votes read-only and
	// releases its locks before the transaction has globally
	// terminated; an unrelated transaction slips in and changes what
	// Pa had read. We reproduce the observable anomaly at the lock
	// layer.
	cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, false, "C", "Pa")
	kv := cl.kvs["Pa"]

	seed := cl.eng.Begin("Pa")
	kv.Put(bg, seed.ID(), "shared", "original")
	if res := seed.Commit("Pa"); res.Outcome != core.OutcomeCommitted {
		t.Fatalf("seed: %+v", res)
	}

	// T1 reads "shared" at Pa and votes read-only at prepare.
	t1 := cl.eng.Begin("C")
	t1.Send("C", "Pa", "read")
	if v, err := kv.Get(bg, t1.ID(), "shared"); err != nil || v != "original" {
		t.Fatalf("t1 read: %q %v", v, err)
	}
	cl.kvs["C"].Put(bg, t1.ID(), "c-side", "x") // C updates so the commit is not trivial

	// While T1's commit is still running (before global termination),
	// Pa's vote releases the read lock; T2 can write immediately.
	p := t1.CommitAsync("C")
	// Step until Pa has voted (lock released) but before T1 completes.
	for i := 0; i < 1000; i++ {
		if err := kv.Put(bg, protocol.TxID{Origin: "Pa", Seq: 999}, "shared", "CHANGED"); err == nil {
			break
		} else if !errors.Is(err, lockmgr.ErrConflict) {
			t.Fatal(err)
		}
		if !cl.eng.Step() {
			t.Fatal("drained without Pa releasing its read lock")
		}
	}
	done := false
	if _, done = p.Result(); done {
		t.Log("note: T1 already complete; anomaly window closed on this schedule")
	} else {
		// T2 wrote while T1 was still committing: the anomaly window
		// the paper warns about is real.
		t.Log("T2 wrote inside T1's commit window (read lock released at the read-only vote)")
	}
	cl.eng.Drain()
	if r, _ := p.Result(); r.Outcome != core.OutcomeCommitted {
		t.Fatalf("t1 = %+v", r)
	}
}

func TestCrashRecoveryWithRealStores(t *testing.T) {
	// Full-stack failure: subordinate B crashes after preparing; on
	// restart the TM resolves via inquiry and the recovered kvstore
	// applies the outcome.
	cl := newCluster(t, core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}}, false, "A", "B")
	tx := cl.eng.Begin("A")
	tx.Send("A", "B", "w")
	id := tx.ID()
	cl.kvs["A"].Put(bg, id, "a", "1")
	cl.kvs["B"].Put(bg, id, "b", "2")

	p := tx.CommitAsync("A")
	// Step until B has prepared.
	for {
		prepared := false
		for _, r := range cl.eng.LogRecords("B") {
			if r.Kind == "Prepared" {
				prepared = true
			}
		}
		if prepared {
			break
		}
		if !cl.eng.Step() {
			t.Fatal("B never prepared")
		}
	}
	cl.eng.Crash("B")
	cl.eng.Restart("B", 5*time.Millisecond)
	cl.eng.Drain()

	if r, done := p.Result(); !done || r.Outcome != core.OutcomeCommitted {
		t.Fatalf("root result = %+v done=%v", r, done)
	}
	// The TM-level outcome reached B after restart. (The in-memory
	// kvstore object lost its volatile state in this simulation; its
	// durable-log recovery path is exercised in kvstore's own tests.)
	if o, ok := cl.eng.OutcomeAt("B", id); !ok || o != core.OutcomeCommitted {
		t.Fatalf("B outcome = %v,%v", o, ok)
	}
}

func TestLockHoldTimesShrinkWithReadOnly(t *testing.T) {
	// Table 1's "early release of locks" row, measured: the read-only
	// optimization releases Pa's locks at its vote rather than after
	// phase two. The hold is the growth of Pa's total released hold
	// time across the transaction: the seed's locks are released
	// before the baseline is read, and nothing else locks at Pa.
	hold := func(readOnly bool) time.Duration {
		cfg := core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: readOnly}}
		cl := newCluster(t, cfg, false, "C", "Pa")
		kv := cl.kvs["Pa"]
		seed := cl.eng.Begin("Pa")
		kv.Put(bg, seed.ID(), "k", "v")
		if res := seed.Commit("Pa"); res.Outcome != core.OutcomeCommitted {
			t.Fatalf("seed: %+v", res)
		}
		base := kv.Locks().TotalHoldTime()
		tx := cl.eng.Begin("C")
		tx.Send("C", "Pa", "read")
		if _, err := kv.Get(bg, tx.ID(), "k"); err != nil {
			t.Fatal(err)
		}
		cl.kvs["C"].Put(bg, tx.ID(), "c", "w")
		if res := tx.Commit("C"); res.Outcome != core.OutcomeCommitted {
			t.Fatalf("commit: %+v", res)
		}
		if n := kv.Locks().TableSize(); n != 0 {
			t.Fatalf("Pa's lock table holds %d keys after the commit", n)
		}
		return kv.Locks().TotalHoldTime() - base
	}
	withOpt := hold(true)
	without := hold(false)
	if withOpt >= without {
		t.Errorf("read-only lock hold %v should be shorter than full-protocol %v", withOpt, without)
	}
}
