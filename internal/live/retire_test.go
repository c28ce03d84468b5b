package live

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// lockingResource locks a row per transaction at Prepare and releases
// it at the outcome, counting Prepare calls; it votes no for every
// transaction whose sequence number veto matches.
type lockingResource struct {
	name     string
	locks    *lockmgr.Manager
	veto     func(seq uint64) bool
	prepares atomic.Int64
}

func (r *lockingResource) Name() string { return r.name }

func (r *lockingResource) Prepare(tx core.TxID) (core.PrepareResult, error) {
	r.prepares.Add(1)
	if r.veto != nil && r.veto(tx.Seq) {
		return core.PrepareResult{Vote: core.VoteNo}, nil
	}
	if err := r.locks.TryAcquire(tx.String(), "row:"+tx.String(), lockmgr.Exclusive); err != nil {
		return core.PrepareResult{}, err
	}
	return core.PrepareResult{Vote: core.VoteYes}, nil
}

func (r *lockingResource) Commit(tx core.TxID) error { r.locks.ReleaseAll(tx.String()); return nil }
func (r *lockingResource) Abort(tx core.TxID) error  { r.locks.ReleaseAll(tx.String()); return nil }

// retireFleet is a coordinator and two subordinates under one variant;
// S2 votes no on every third transaction.
type retireFleet struct {
	net   *netsim.ChanNetwork
	parts map[string]*Participant
	res   map[string]*lockingResource
	logs  map[string]*wal.Log
}

func newRetireFleet(t *testing.T, v core.Variant, opts ...Option) *retireFleet {
	t.Helper()
	f := &retireFleet{
		net:   netsim.NewChanNetwork(),
		parts: map[string]*Participant{},
		res:   map[string]*lockingResource{},
		logs:  map[string]*wal.Log{},
	}
	for _, name := range []string{"C", "S1", "S2"} {
		r := &lockingResource{name: "r" + name, locks: lockmgr.New(clock.NewWall())}
		if name == "S2" {
			r.veto = func(seq uint64) bool { return seq%3 == 0 }
		}
		log := wal.New(wal.NewMemStore())
		p := NewParticipant(name, f.net.Endpoint(name), log, []core.Resource{r},
			append([]Option{WithVariant(v), WithTimeout(2*time.Second, 2*time.Second)}, opts...)...)
		f.parts[name], f.res[name], f.logs[name] = p, r, log
		p.Start()
	}
	t.Cleanup(func() {
		for _, p := range f.parts {
			p.Stop()
		}
	})
	return f
}

// burst runs n concurrent transactions from C; every third aborts on
// S2's veto. It returns one committed and one aborted transaction id
// once both subordinates have decided every transaction: Commit can
// return before a subordinate has even handled its Prepare (an abort
// decided on S2's veto), and tests that probe a subordinate afterwards
// must not race that delivery.
func (f *retireFleet) burst(t *testing.T, n int) (committed, aborted string) {
	t.Helper()
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := core.TxID{Origin: "C", Seq: uint64(i + 1)}
			outs[i], _ = f.parts["C"].Commit(context.Background(), tx.String(), []string{"S1", "S2"})
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		tx := core.TxID{Origin: "C", Seq: uint64(i + 1)}
		want := Committed
		if tx.Seq%3 == 0 {
			want = Aborted
		}
		if out != want {
			t.Fatalf("%s: outcome %v, want %v", tx, out, want)
		}
		switch {
		case want == Committed && committed == "":
			committed = tx.String()
		case want == Aborted && aborted == "":
			aborted = tx.String()
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, name := range []string{"S1", "S2"} {
			decided := f.parts[name].Decided()
			for i := 0; i < n; i++ {
				if _, ok := decided[core.TxID{Origin: "C", Seq: uint64(i + 1)}.String()]; !ok {
					return false
				}
			}
		}
		return true
	})
	return committed, aborted
}

// drained waits until every participant's state table is empty and
// every resource has released its locks.
func (f *retireFleet) drained(t *testing.T) {
	t.Helper()
	waitUntil(t, 5*time.Second, func() bool {
		for name, p := range f.parts {
			if p.StateTableSize() != 0 || f.res[name].locks.TableSize() != 0 {
				return false
			}
		}
		return true
	})
}

// probe sends m to a participant from a bare endpoint and collects
// whatever comes back within a short window.
func probe(t *testing.T, net *netsim.ChanNetwork, ep netsim.Endpoint, to string, m protocol.Message) []protocol.Message {
	t.Helper()
	if err := ep.Send(to, protocol.Packet{From: "X", To: to, Messages: []protocol.Message{m}}); err != nil {
		t.Fatal(err)
	}
	var got []protocol.Message
	timeout := time.After(100 * time.Millisecond)
	for {
		select {
		case pkt := <-ep.Recv():
			got = append(got, pkt.Messages...)
		case <-timeout:
			return got
		}
	}
}

var allVariants = []core.Variant{
	core.VariantBaseline, core.VariantPA, core.VariantPN,
	core.VariantPC, core.VariantPaxos, core.Variant1PC,
}

// TestRetirementDrainsStateTable: after a burst of concurrent commits
// and aborts, no participant keeps a state entry under any variant —
// finished subordinates retire like coordinators do — and the
// outcomes all stay answerable from the decided table.
func TestRetirementDrainsStateTable(t *testing.T) {
	for _, v := range allVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			f := newRetireFleet(t, v)
			committed, aborted := f.burst(t, 30)
			f.drained(t)
			for _, name := range []string{"C", "S1"} {
				d := f.parts[name].Decided()
				if c, ok := d[committed]; !ok || !c {
					t.Errorf("%s: %s decided=%v committed=%v", name, committed, ok, c)
				}
				if c, ok := d[aborted]; !ok || c {
					t.Errorf("%s: %s decided=%v committed=%v", name, aborted, ok, c)
				}
			}
		})
	}
}

// TestDuplicatesAfterRetirement injects, from a bare endpoint, a
// duplicate Prepare and a duplicate outcome for a committed and an
// aborted transaction whose subordinate entries have retired. A
// Prepare must not prepare, lock, log or vote yes again (an aborted
// transaction is answered no); an outcome is re-acked exactly when the
// variant acknowledges that outcome.
func TestDuplicatesAfterRetirement(t *testing.T) {
	for _, v := range allVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			f := newRetireFleet(t, v)
			committed, aborted := f.burst(t, 6)
			f.drained(t)
			x := f.net.Endpoint("X")
			s1 := f.parts["S1"]
			for _, tc := range []struct {
				tx     string
				commit bool
			}{{committed, true}, {aborted, false}} {
				appends := f.logs["S1"].Stats().Appends
				prepares := f.res["S1"].prepares.Load()

				prep := protocol.Message{Type: protocol.MsgPrepare, Tx: tc.tx, Presume: v}
				got := probe(t, f.net, x, "S1", prep)
				wantNo := !tc.commit && v != core.VariantPaxos
				if len(got) != btoi(wantNo) {
					t.Fatalf("duplicate Prepare for %s answered %v, want %d no vote(s)", tc.tx, got, btoi(wantNo))
				}
				for _, m := range got {
					if m.Type != protocol.MsgVote || m.Vote != protocol.VoteNo {
						t.Fatalf("duplicate Prepare for %s answered %+v", tc.tx, m)
					}
				}

				mt := protocol.MsgAbort
				if tc.commit {
					mt = protocol.MsgCommit
				}
				got = probe(t, f.net, x, "S1", protocol.Message{Type: mt, Tx: tc.tx})
				wantAck := v.Row().Acks(tc.commit)
				if len(got) != btoi(wantAck) || (wantAck && got[0].Type != protocol.MsgAck) {
					t.Fatalf("duplicate %v for %s answered %v; want ack=%v", mt, tc.tx, got, wantAck)
				}

				if n := f.logs["S1"].Stats().Appends; n != appends {
					t.Fatalf("duplicates for %s wrote %d log records", tc.tx, n-appends)
				}
				if n := f.res["S1"].prepares.Load(); n != prepares {
					t.Fatalf("duplicate Prepare for %s prepared the resource again", tc.tx)
				}
				if n := f.res["S1"].locks.TableSize(); n != 0 {
					t.Fatalf("duplicates for %s left %d locks", tc.tx, n)
				}
				if n := s1.StateTableSize(); n != 0 {
					t.Fatalf("duplicates for %s re-created %d state entries", tc.tx, n)
				}
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDuplicateOutcomeAfterRestartReacks: the decided table a restart
// rebuilds from the log keeps the subordinate's presumption, so a
// duplicate commit after the restart is re-acked as before it.
func TestDuplicateOutcomeAfterRestartReacks(t *testing.T) {
	f := newRetireFleet(t, core.VariantPN)
	committed, _ := f.burst(t, 2)
	f.drained(t)
	s1 := f.parts["S1"]
	if err := f.logs["S1"].Sync(); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	s1b := s1.Restarted(f.net.Endpoint("S1"))
	s1b.Start()
	f.parts["S1"] = s1b
	got := probe(t, f.net, f.net.Endpoint("X"), "S1", protocol.Message{Type: protocol.MsgCommit, Tx: committed})
	if len(got) != 1 || got[0].Type != protocol.MsgAck {
		t.Fatalf("duplicate commit after restart answered %v, want one ack", got)
	}
	if s1b.StateTableSize() != 0 {
		t.Fatalf("restart left %d state entries", s1b.StateTableSize())
	}
}
