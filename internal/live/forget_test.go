package live

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lockmgr"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// forgetTimeout is the vote and ack timeout of the virtual-clock
// fleets below, and forgetHorizon their decided tables' horizon: the
// timeout plus a quarter again as a delivery margin.
const (
	forgetTimeout = time.Second
	forgetHorizon = forgetTimeout * 5 / 4
)

// newForgetFleet is a retire fleet on a virtual clock with one shard
// per participant, so a single insert rotates a node's whole table.
func newForgetFleet(t *testing.T, v protocol.Variant) (*retireFleet, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual()
	f := newRetireFleet(t, v, WithClock(vc), WithShards(1), WithTimeout(forgetTimeout, forgetTimeout))
	return f, vc
}

// commitOne runs one committing transaction from C with seq.
func (f *retireFleet) commitOne(t *testing.T, seq uint64) string {
	t.Helper()
	tx := protocol.TxID{Origin: "C", Seq: seq}.String()
	if out, err := f.parts["C"].Commit(context.Background(), tx, []string{"S1", "S2"}); out != Committed || err != nil {
		t.Fatalf("%s: %v, %v", tx, out, err)
	}
	return tx
}

// settled waits until the fleet is drained and no pin is waiting on an
// acknowledgment still in flight.
func (f *retireFleet) settled(t *testing.T, v protocol.Variant) {
	t.Helper()
	f.drained(t)
	if v == protocol.VariantPaxos {
		return // acceptor entries stay pinned
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, p := range f.parts {
			if p.PinnedDecisions() != 0 {
				return false
			}
		}
		return true
	})
}

// TestForgetAgesOutByVariant: under every variant a finished
// transaction's entries stay answerable inside the horizon — a
// duplicate outcome is re-acked exactly as before — and are gone after
// two horizons, except a Paxos acceptor's, which stay pinned. Past the
// horizon the coordinator answers an inquiry by the transaction's
// presumption.
func TestForgetAgesOutByVariant(t *testing.T) {
	for _, v := range allVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			f, vc := newForgetFleet(t, v)
			committed, aborted := f.burst(t, 6)
			f.settled(t, v)
			if v != protocol.VariantPaxos {
				for name, p := range f.parts {
					if n := p.PinnedDecisions(); n != 0 {
						t.Fatalf("%s: %d pinned entries after every ack came in", name, n)
					}
				}
			}

			// Inside the horizon (the burst now sits in the old
			// generation): duplicates answer from the table.
			vc.Advance(forgetHorizon)
			f.commitOne(t, 100)
			f.settled(t, v)
			x := f.net.Endpoint("X")
			appends := f.logs["S1"].Stats().Appends
			got := probe(t, f.net, x, "S1", protocol.Message{Type: protocol.MsgCommit, Tx: committed})
			if want := btoi(v.Acks(true)); len(got) != want {
				t.Fatalf("duplicate commit inside the horizon answered %v, want %d ack(s)", got, want)
			}
			got = probe(t, f.net, x, "S1", protocol.Message{Type: protocol.MsgPrepare, Tx: aborted, Presume: v})
			if want := btoi(v != protocol.VariantPaxos); len(got) != want || (want == 1 && got[0].Vote != protocol.VoteNo) {
				t.Fatalf("late Prepare for aborted %s inside the horizon answered %v, want %d no vote(s)", aborted, got, want)
			}
			if n := f.logs["S1"].Stats().Appends; n != appends {
				t.Fatalf("duplicates inside the horizon wrote %d records", n-appends)
			}
			for _, name := range []string{"C", "S1", "S2"} {
				if _, ok := f.parts[name].Decided()[committed]; !ok {
					t.Fatalf("%s forgot %s inside the horizon", name, committed)
				}
			}

			// Two horizons on, the next insert drops the burst's
			// generation.
			vc.Advance(forgetHorizon)
			f.commitOne(t, 101)
			f.settled(t, v)
			for _, name := range []string{"C", "S1", "S2"} {
				p := f.parts[name]
				_, knowsC := p.Decided()[committed]
				_, knowsA := p.Decided()[aborted]
				if pinned := v == protocol.VariantPaxos; knowsC != pinned || knowsA != pinned {
					t.Fatalf("%s after two horizons: remembers commit=%v abort=%v, want %v", name, knowsC, knowsA, pinned)
				}
				if want := 2; v != protocol.VariantPaxos && p.DecidedTableSize() != want {
					t.Fatalf("%s: decided table holds %d entries, want %d", name, p.DecidedTableSize(), want)
				}
			}
			if v == protocol.VariantPaxos {
				// Pinned acceptor state still answers past the horizon:
				// a late Prepare neither prepares nor logs again.
				appends := f.logs["S1"].Stats().Appends
				if got := probe(t, f.net, x, "S1", protocol.Message{Type: protocol.MsgPrepare, Tx: committed, Presume: v}); len(got) != 0 {
					t.Fatalf("late Prepare for pinned %s answered %v", committed, got)
				}
				if n := f.logs["S1"].Stats().Appends; n != appends {
					t.Fatalf("late Prepare for pinned %s wrote %d records", committed, n-appends)
				}
				return
			}
			for _, tc := range []struct {
				tx     string
				commit bool
			}{{committed, true}, {aborted, false}} {
				got := probe(t, f.net, x, "C", protocol.Message{Type: protocol.MsgInquire, Tx: tc.tx, Presume: v})
				if len(got) != 1 || got[0].Type != protocol.MsgOutcome {
					t.Fatalf("inquiry for forgotten %s answered %v", tc.tx, got)
				}
				if want := presumedOutcome(v); got[0].Outcome != want {
					t.Fatalf("inquiry for forgotten %s answered %v, want the presumption %v", tc.tx, got[0].Outcome, want)
				}
			}
		})
	}
}

// presumedOutcome is what a coordinator answers for a transaction it
// has no memory of under v.
func presumedOutcome(v protocol.Variant) protocol.OutcomeKind {
	switch v {
	case protocol.VariantPA, protocol.Variant1PC:
		return protocol.OutcomeAbort
	case protocol.VariantPC:
		return protocol.OutcomeCommit
	case protocol.VariantPN:
		return protocol.OutcomeInProgress
	default:
		return protocol.OutcomeUnknown
	}
}

// rawSub is a subordinate played by the test: it votes yes to every
// Prepare and acknowledges outcomes only when told to.
type rawSub struct {
	ep      netsim.Endpoint
	ack     atomic.Bool
	drop    atomic.Int64 // commits to ignore before any is acked
	commits atomic.Int64
	// horizons is the Horizon each Prepare and Commit announced.
	mu       sync.Mutex
	horizons []time.Duration
}

func (s *rawSub) serve(stop <-chan struct{}) {
	for {
		select {
		case pkt, ok := <-s.ep.Recv():
			if !ok {
				return
			}
			for _, m := range pkt.Messages {
				s.mu.Lock()
				s.horizons = append(s.horizons, m.Horizon)
				s.mu.Unlock()
				switch m.Type {
				case protocol.MsgPrepare:
					s.send(pkt.From, protocol.Message{Type: protocol.MsgVote, Tx: m.Tx, Vote: protocol.VoteYes})
				case protocol.MsgCommit:
					s.commits.Add(1)
					if s.ack.Load() && s.drop.Add(-1) < 0 {
						s.send(pkt.From, protocol.Message{Type: protocol.MsgAck, Tx: m.Tx})
					}
				}
			}
		case <-stop:
			return
		}
	}
}

func (s *rawSub) send(to string, m protocol.Message) {
	_ = s.ep.Send(to, protocol.Packet{From: "S", To: to, Messages: []protocol.Message{m}})
}

// driveVirtual advances vc to each armed timer until done closes.
func driveVirtual(t *testing.T, vc *clock.Virtual, done <-chan struct{}) {
	t.Helper()
	driveVirtualUntil(t, vc, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// driveVirtualUntil advances vc to each armed timer until cond holds.
func driveVirtualUntil(t *testing.T, vc *clock.Virtual, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("never finished under virtual time")
		}
		if d, ok := vc.NextDeadline(); ok {
			vc.AdvanceTo(d)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}

// hasTxRecord reports whether log holds a record of kind for tx.
func hasTxRecord(t *testing.T, log *wal.Log, tx, kind string) bool {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Tx == tx && r.Kind == kind {
			return true
		}
	}
	return false
}

// unackedPACommit commits one PA transaction whose subordinate's ack
// never arrives. Commit returns at the decision, its table entry
// dropped; the resender then retransmits the outcome until it gives up,
// leaving the decision pinned.
func unackedPACommit(t *testing.T) (c *Participant, sub *rawSub, vc *clock.Virtual, net *netsim.ChanNetwork, tx string) {
	t.Helper()
	vc = clock.NewVirtual()
	net = netsim.NewChanNetwork()
	c = NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithClock(vc), WithShards(1), WithTimeout(forgetTimeout, forgetTimeout),
		WithRetry(clock.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Jitter: -1}))
	c.Start()
	sub = &rawSub{ep: net.Endpoint("S")}
	stop := make(chan struct{})
	go sub.serve(stop)
	t.Cleanup(func() { close(stop) })

	tx = protocol.TxID{Origin: "C", Seq: 1}.String()
	done := make(chan struct{})
	var out Outcome
	go func() {
		out, _ = c.Commit(context.Background(), tx, []string{"S"})
		close(done)
	}()
	driveVirtual(t, vc, done)
	if out != Committed {
		t.Fatalf("commit = %v", out)
	}
	if c.StateTableSize() != 0 {
		t.Fatalf("Commit returned with %d table entries, want none", c.StateTableSize())
	}
	driveVirtualUntil(t, vc, func() bool { return c.owing.Load() == 0 })
	if sub.commits.Load() < 2 {
		t.Fatalf("outcome delivered %d times; the coordinator did not retransmit", sub.commits.Load())
	}
	return c, sub, vc, net, tx
}

// TestForgetPinsUnackedCommit: a PA commit whose ack never came stays
// pinned with no End record, past any number of horizons; the late ack
// writes End and releases it to age out.
func TestForgetPinsUnackedCommit(t *testing.T) {
	c, sub, vc, _, tx := unackedPACommit(t)
	defer c.Stop()
	if c.PinnedDecisions() != 1 || hasTxRecord(t, c.Log(), tx, "End") {
		t.Fatalf("gave up on the ack: pinned=%d End=%v, want pinned and no End", c.PinnedDecisions(), hasTxRecord(t, c.Log(), tx, "End"))
	}
	for i := 0; i < 3; i++ {
		vc.Advance(forgetHorizon)
		c.recordDecision(fmt.Sprintf("rot%d", i), false, false) // an insert rotates the table
	}
	if committed, ok := c.Decided()[tx]; !ok || !committed {
		t.Fatalf("pinned commit forgotten after three horizons")
	}

	sub.send("C", protocol.Message{Type: protocol.MsgAck, Tx: tx})
	waitUntil(t, 5*time.Second, func() bool { return c.PinnedDecisions() == 0 })
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if !hasTxRecord(t, c.Log(), tx, "End") {
		t.Fatal("the late ack released the pin without writing End")
	}
	for i := 0; i < 2; i++ {
		vc.Advance(forgetHorizon)
		c.recordDecision(fmt.Sprintf("late%d", i), false, false)
	}
	if _, ok := c.Decided()[tx]; ok {
		t.Fatal("released entry still remembered two horizons after its End")
	}
}

// TestForgetUnackedCommitSurvivesRestart: the coordinator restarts two
// horizons after giving up on the ack. Its replayed decision has no End
// record, so it is pinned again, and the subordinate's inquiry — which
// PA's presumption would answer "abort" — still gets "commit".
func TestForgetUnackedCommitSurvivesRestart(t *testing.T) {
	c, _, vc, net, tx := unackedPACommit(t)
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	vc.Advance(2 * forgetHorizon)
	c.Crash()
	c2 := c.Restarted(net.Endpoint("C"))
	c2.Start()
	defer c2.Stop()
	for i := 0; i < 3; i++ {
		vc.Advance(forgetHorizon)
		c2.recordDecision(fmt.Sprintf("rot%d", i), false, false)
	}
	if c2.PinnedDecisions() != 1 {
		t.Fatalf("replayed decision without End: %d pinned, want 1", c2.PinnedDecisions())
	}
	got := probe(t, net, net.Endpoint("X"), "C", protocol.Message{Type: protocol.MsgInquire, Tx: tx, Presume: protocol.VariantPA})
	if len(got) != 1 || got[0].Type != protocol.MsgOutcome || got[0].Outcome != protocol.OutcomeCommit {
		t.Fatalf("inquiry after restart answered %v, want commit", got)
	}
}

// TestForgetReplayAgesAndCheckpointShrinks: decisions replayed with
// their End records age from the restart on; once they are forgotten a
// checkpoint drops their records, and the next restart replays only
// what is still remembered.
func TestForgetReplayAgesAndCheckpointShrinks(t *testing.T) {
	f, vc := newForgetFleet(t, protocol.VariantPN)
	committed, aborted := f.burst(t, 9)
	f.settled(t, protocol.VariantPN)
	restart := func() {
		t.Helper()
		c := f.parts["C"]
		if err := c.Log().Sync(); err != nil {
			t.Fatal(err)
		}
		c.Crash()
		c2 := c.Restarted(f.net.Endpoint("C"))
		c2.Start()
		f.parts["C"] = c2
	}
	restart()
	c := f.parts["C"]
	if c.PinnedDecisions() != 0 {
		t.Fatalf("decisions replayed with End records came back pinned: %d", c.PinnedDecisions())
	}
	for _, tx := range []string{committed, aborted} {
		if _, ok := c.Decided()[tx]; !ok {
			t.Fatalf("replay lost %s", tx)
		}
	}
	before, err := c.Log().Records()
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(forgetHorizon)
	f.commitOne(t, 100)
	vc.Advance(forgetHorizon)
	f.commitOne(t, 101)
	if _, ok := c.Decided()[committed]; ok {
		t.Fatal("replayed entry not forgotten two horizons after the restart")
	}
	kept, dropped, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || kept >= len(before) {
		t.Fatalf("checkpoint kept %d and dropped %d of %d+ records", kept, dropped, len(before))
	}
	restart()
	c = f.parts["C"]
	if n := c.DecidedTableSize(); n != 2 {
		t.Fatalf("restart after the checkpoint replayed %d decisions, want the 2 still remembered", n)
	}
}

// TestForgetSoak runs 10^5 transactions through a PA trio on small
// segment stores and short timeouts: the decided table stays flat, the
// segment count stays bounded, and the records a restart would replay
// do not grow with the number of commits.
//
// What a node remembers is what it decided within one to two horizons
// (1.25 timeouts each), so it grows with the commit rate, not the
// commit count. The timeout is short enough that the first tenth of
// the commits outlasts several horizons on any host: the first sample
// is already the steady state the later ones are held to, instead of
// the whole first tenth, which a fast host's steady state outgrows.
func TestForgetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5 commits")
	}
	const (
		total   = 100_000
		workers = 16
		timeout = 10 * time.Millisecond
	)
	dir := t.TempDir()
	net := netsim.NewChanNetwork()
	names := []string{"C", "S1", "S2"}
	parts := map[string]*Participant{}
	segs := map[string]*wal.SegmentStore{}
	for _, name := range names {
		seg, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(false), wal.WithSegmentBytes(32<<10))
		if err != nil {
			t.Fatal(err)
		}
		p := NewParticipant(name, net.Endpoint(name), wal.New(seg), []protocol.Resource{protocol.NewStaticResource(name)},
			WithTimeout(timeout, timeout), WithAdaptiveCommit(time.Millisecond))
		p.Start()
		parts[name], segs[name] = p, seg
	}
	defer func() {
		for _, name := range names {
			parts[name].Stop()
			segs[name].Close()
		}
	}()

	var next, committed atomic.Int64
	var maxSegs int
	type sample struct{ decided, records int }
	samples := map[int64]sample{}
	run := func(upto int64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := next.Add(1)
					if n > upto {
						return
					}
					// A vote that misses the timeout on a loaded host aborts
					// the transaction; that is forgotten like a commit.
					tx := protocol.TxID{Origin: "C", Seq: uint64(n)}.String()
					out, err := parts["C"].Commit(context.Background(), tx, []string{"S1", "S2"})
					if out == InDoubt {
						t.Errorf("%s: %v, %v", tx, out, err)
						return
					}
					if out == Committed {
						committed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		next.Store(upto)
	}
	measure := func(at int64) {
		s := sample{}
		for _, name := range names {
			s.decided = max(s.decided, parts[name].DecidedTableSize())
			recs, err := parts[name].Log().Records()
			if err != nil {
				t.Fatal(err)
			}
			s.records = max(s.records, len(recs))
			files, err := filepath.Glob(filepath.Join(dir, name, "*.seg"))
			if err != nil {
				t.Fatal(err)
			}
			maxSegs = max(maxSegs, len(files))
		}
		samples[at] = s
	}
	for _, at := range []int64{total / 10, total / 2, total} {
		run(at)
		measure(at)
		if t.Failed() {
			return
		}
	}
	first, last := samples[total/10], samples[total]
	t.Logf("after %d transactions: %+v; after %d: %+v; %d committed; peak segments %d", total/10, first, total, last, committed.Load(), maxSegs)
	if last.decided > 2*first.decided+1000 {
		t.Errorf("decided table grew from %d to %d entries", first.decided, last.decided)
	}
	if last.records > 2*first.records+2000 {
		t.Errorf("replayable records grew from %d to %d with 10x the commits", first.records, last.records)
	}
	if maxSegs > 64 {
		t.Errorf("segment files peaked at %d", maxSegs)
	}

	// A restart replays only what is still remembered.
	c := parts["C"]
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c2 := c.Restarted(net.Endpoint("C"))
	c2.Start()
	parts["C"] = c2
	if n := c2.DecidedTableSize(); n > first.records {
		t.Errorf("restart replayed %d decisions, more than the %d records the log held after a tenth of the commits", n, first.records)
	}
}

// TestForgetHoldsGenerationsDuringScan: while a checkpoint scans the
// log, inserts do not rotate the generations, so no transaction is
// forgotten between the records the scan keeps and those it drops.
func TestForgetHoldsGenerationsDuringScan(t *testing.T) {
	vc := clock.NewVirtual()
	p := NewParticipant("C", netsim.NewChanNetwork().Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithClock(vc), WithShards(1), WithTimeout(forgetTimeout, forgetTimeout))
	p.recordDecision("t0", true, false)
	p.scanning.Store(true)
	for i := 1; i <= 3; i++ {
		vc.Advance(forgetHorizon)
		p.recordDecision(fmt.Sprintf("t%d", i), true, false)
	}
	if _, ok := p.Decided()["t0"]; !ok {
		t.Fatal("an entry aged out while a checkpoint scan ran")
	}
	p.scanning.Store(false)
	for i := 4; i <= 5; i++ {
		vc.Advance(forgetHorizon)
		p.recordDecision(fmt.Sprintf("t%d", i), true, false)
	}
	if _, ok := p.Decided()["t0"]; ok {
		t.Fatal("entry not forgotten two rotations after the scan ended")
	}
}

// TestForgetCoversCoordinatorHorizon: a subordinate whose own timeouts
// are shorter than its coordinator's keeps its no vote for as long as
// the coordinator announced it may retransmit. The coordinator (played
// by the test) announces a 10 s horizon, and the subordinate's No is
// lost. The Prepare retransmitted 8.75 s later, seven of the
// subordinate's own horizons on, is answered No again from the decided table: no
// second prepare, which would now vote yes on an empty write set, and
// no log record. Past the coordinator's horizon the entry goes.
func TestForgetCoversCoordinatorHorizon(t *testing.T) {
	const coordTimeout = 10 * time.Second
	vc := clock.NewVirtual()
	net := netsim.NewChanNetwork()
	var veto atomic.Bool
	veto.Store(true)
	r := &lockingResource{name: "rS", locks: lockmgr.New(clock.NewWall()), veto: func(uint64) bool { return veto.Swap(false) }}
	log := wal.New(wal.NewMemStore())
	s := NewParticipant("S", net.Endpoint("S"), log, []protocol.Resource{r},
		WithVariant(protocol.VariantPN), WithClock(vc), WithShards(1), WithTimeout(forgetTimeout, forgetTimeout))
	s.Start()
	defer s.Stop()
	x := net.Endpoint("X")
	tx := protocol.TxID{Origin: "X", Seq: 1}.String()
	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: tx, Presume: protocol.VariantPN, Horizon: coordTimeout}
	if got := probe(t, net, x, "S", prep); len(got) != 1 || got[0].Vote != protocol.VoteNo {
		t.Fatalf("first Prepare answered %v, want a no vote", got)
	}
	appends := log.Stats().Appends
	for i := 0; i < 7; i++ {
		vc.Advance(forgetHorizon)
		s.recordDecision(fmt.Sprintf("other%d", i), false, false) // an insert may rotate
	}
	got := probe(t, net, x, "S", prep)
	if len(got) != 1 || got[0].Type != protocol.MsgVote || got[0].Vote != protocol.VoteNo {
		t.Fatalf("Prepare retransmitted inside the coordinator's horizon answered %v, want a no vote", got)
	}
	if n := r.prepares.Load(); n != 1 {
		t.Fatalf("resource prepared %d times, want 1", n)
	}
	if n := log.Stats().Appends; n != appends {
		t.Fatalf("the retransmitted Prepare wrote %d records", n-appends)
	}
	for i := 0; i < 2; i++ {
		vc.Advance(coordTimeout * 5 / 4)
		s.recordDecision(fmt.Sprintf("late%d", i), false, false)
	}
	if _, ok := s.Decided()[tx]; ok {
		t.Fatal("no vote still remembered two of the coordinator's horizons on")
	}
}

// TestCoordinatorAnnouncesHorizon: every Prepare and outcome a
// coordinator sends, retransmissions and the restart replay's
// re-announcement included, carries its retransmission horizon
// max(vote, ack timeout), which the receiver's decided table then
// keeps its entries for (TestForgetCoversCoordinatorHorizon).
func TestCoordinatorAnnouncesHorizon(t *testing.T) {
	c, sub, _, net, _ := unackedPACommit(t)
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c2 := c.Restarted(net.Endpoint("C"))
	c2.Start()
	defer c2.Stop()
	want := c.retransmitHorizon()
	waitUntil(t, 5*time.Second, func() bool { return sub.commits.Load() >= 3 })
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.horizons) < 4 {
		t.Fatalf("subordinate saw %d messages, want a Prepare and three commits", len(sub.horizons))
	}
	for i, h := range sub.horizons {
		if h != want {
			t.Fatalf("message %d announced horizon %v, want %v", i, h, want)
		}
	}
}

// TestForgetReleasesAbortsAfterSubordinateRestart: under PN a
// subordinate is killed mid-load, so every later transaction aborts on
// the vote timeout and its abort stays pinned, waiting on the dead
// subordinate's ack, past the resender's deadline. Once the subordinate
// is back, the next rotation resends the aborts; it acknowledges them (it never prepared), the
// pins release, and after two more horizons a checkpoint leaves a log
// whose replay holds only what is still remembered.
func TestForgetReleasesAbortsAfterSubordinateRestart(t *testing.T) {
	const aborts = 12
	f, vc := newForgetFleet(t, protocol.VariantPN)
	f.commitOne(t, 1)
	f.settled(t, protocol.VariantPN)
	f.parts["S2"].Crash()

	var wg sync.WaitGroup
	done := make(chan struct{})
	outs := make([]Outcome, aborts)
	for i := 0; i < aborts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := protocol.TxID{Origin: "C", Seq: uint64(10 + i)}.String()
			outs[i], _ = f.parts["C"].Commit(context.Background(), tx, []string{"S1", "S2"})
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	driveVirtual(t, vc, done)
	for i, out := range outs {
		if out != Aborted {
			t.Fatalf("transaction %d with a dead subordinate: %v, want aborted", i, out)
		}
	}
	c := f.parts["C"]
	waitUntil(t, 5*time.Second, func() bool { return c.PinnedDecisions() == aborts })

	s2 := f.parts["S2"].Restarted(f.net.Endpoint("S2"))
	s2.Start()
	f.parts["S2"] = s2
	vc.Advance(forgetHorizon)
	// The resender sent the aborts again until their ack deadline,
	// while S2 was down, and has given up on them by now.
	waitUntil(t, 5*time.Second, func() bool { return c.owing.Load() == 0 })
	f.commitOne(t, 100) // its release rotates C's table, which resends the aborts
	waitUntil(t, 5*time.Second, func() bool { return c.PinnedDecisions() == 0 })

	for _, seq := range []uint64{101, 103} { // S2 vetoes multiples of 3
		vc.Advance(forgetHorizon)
		f.commitOne(t, seq)
	}
	f.settled(t, protocol.VariantPN)
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c2 := c.Restarted(f.net.Endpoint("C"))
	c2.Start()
	f.parts["C"] = c2
	if n, pinned := c2.DecidedTableSize(), c2.PinnedDecisions(); n > 2 || pinned != 0 {
		t.Fatalf("restart replayed %d decisions (%d pinned), want at most the 2 still remembered", n, pinned)
	}
}

// TestForgetOrphanAbortReleasedByAck: a solicited vote for a
// transaction the coordinator has no record of is answered by a
// durable abort. Under a non-abort presumption the abort is pinned,
// waiting on the voter's ack, also across a restart that re-announces
// it; the ack writes End and releases it.
func TestForgetOrphanAbortReleasedByAck(t *testing.T) {
	vc := clock.NewVirtual()
	net := netsim.NewChanNetwork()
	c := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithVariant(protocol.VariantPN), WithClock(vc), WithShards(1), WithTimeout(forgetTimeout, forgetTimeout))
	c.Start()
	x := net.Endpoint("X")
	orphan := func(p *Participant, seq uint64) string {
		t.Helper()
		tx := protocol.TxID{Origin: "C", Seq: seq}.String()
		got := probe(t, net, x, "C", protocol.Message{Type: protocol.MsgVote, Tx: tx, Vote: protocol.VoteYes})
		if len(got) != 1 || got[0].Type != protocol.MsgAbort {
			t.Fatalf("orphan vote answered %v, want an abort", got)
		}
		if p.PinnedDecisions() != 1 {
			t.Fatalf("orphan abort: %d pinned, want 1", p.PinnedDecisions())
		}
		return tx
	}
	acked := func(p *Participant, tx string) {
		t.Helper()
		if err := x.Send("C", protocol.Packet{From: "X", To: "C", Messages: []protocol.Message{{Type: protocol.MsgAck, Tx: tx}}}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, func() bool { return p.PinnedDecisions() == 0 })
		if err := p.Log().Sync(); err != nil {
			t.Fatal(err)
		}
		if !hasTxRecord(t, p.Log(), tx, "End") {
			t.Fatal("the ack released the orphan abort without writing End")
		}
	}
	acked(c, orphan(c, 77))

	tx := orphan(c, 78)
	if err := c.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c2 := c.Restarted(net.Endpoint("C"))
	c2.Start()
	defer c2.Stop()
	select {
	case pkt := <-x.Recv():
		if len(pkt.Messages) != 1 || pkt.Messages[0].Type != protocol.MsgAbort || pkt.Messages[0].Tx != tx {
			t.Fatalf("restart re-announced %v, want the abort", pkt.Messages)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restart did not re-announce the pinned abort")
	}
	if c2.PinnedDecisions() != 1 {
		t.Fatalf("replayed orphan abort: %d pinned, want 1", c2.PinnedDecisions())
	}
	acked(c2, tx)
}
