package live

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

func newKV(name string) *kvstore.Store {
	return kvstore.New(name, wal.New(wal.NewMemStore()), clock.NewWall(), kvstore.WithLockWait(time.Minute))
}

func setupChanTrio(t *testing.T, opts ...Option) (coord, s1, s2 *Participant, kv1, kv2 *kvstore.Store, net *netsim.ChanNetwork) {
	t.Helper()
	net = netsim.NewChanNetwork()
	kv1, kv2 = newKV("db1"), newKV("db2")
	kvC := newKV("dbc")
	coord = NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), []protocol.Resource{kvC}, opts...)
	s1 = NewParticipant("S1", net.Endpoint("S1"), wal.New(wal.NewMemStore()), []protocol.Resource{kv1}, opts...)
	s2 = NewParticipant("S2", net.Endpoint("S2"), wal.New(wal.NewMemStore()), []protocol.Resource{kv2}, opts...)
	coord.Start()
	s1.Start()
	s2.Start()
	t.Cleanup(func() {
		coord.Stop()
		s1.Stop()
		s2.Stop()
	})
	return coord, s1, s2, kv1, kv2, net
}

// waitAcked waits until c holds no decision pinned for acks. A commit
// that is acked only so its coordinator may forget it returns at the
// decision (protocol.Decision.Early), so a lock-free peek at a
// subordinate's store can run ahead of the subordinate applying it.
func waitAcked(t *testing.T, c *Participant) {
	t.Helper()
	waitUntil(t, 5*time.Second, func() bool { return c.PinnedDecisions() == 0 })
}

func TestLiveCommitOverChannels(t *testing.T) {
	coord, _, _, kv1, kv2, _ := setupChanTrio(t)
	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 1}
	if err := kv1.Put(ctx, tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Put(ctx, tx, "b", "2"); err != nil {
		t.Fatal(err)
	}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"})
	if err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	waitAcked(t, coord)
	if v, _ := kv1.ReadCommitted("a"); v != "1" {
		t.Errorf("kv1 a = %q", v)
	}
	if v, _ := kv2.ReadCommitted("b"); v != "2" {
		t.Errorf("kv2 b = %q", v)
	}
}

func TestLiveReadOnlySubSkipsPhaseTwo(t *testing.T) {
	coord, _, _, kv1, kv2, _ := setupChanTrio(t)
	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 2}
	// S1 updates; S2 only participates without writes (read-only).
	if err := kv1.Put(ctx, tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"})
	if err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	_ = kv2
}

func TestLiveAbortOnNoVote(t *testing.T) {
	net := netsim.NewChanNetwork()
	bad := protocol.NewStaticResource("bad", protocol.StaticVote(protocol.VoteNo))
	kv := newKV("db")
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), []protocol.Resource{kv})
	s1 := NewParticipant("S1", net.Endpoint("S1"), wal.New(wal.NewMemStore()), []protocol.Resource{bad})
	coord.Start()
	s1.Start()
	defer coord.Stop()
	defer s1.Stop()

	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 3}
	if err := kv.Put(ctx, tx, "x", "y"); err != nil {
		t.Fatal(err)
	}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1"})
	if err != nil {
		t.Fatalf("commit error: %v", err)
	}
	if out != Aborted {
		t.Fatalf("outcome = %v, want aborted", out)
	}
	if _, ok := kv.ReadCommitted("x"); ok {
		t.Error("abort leaked a write")
	}
}

func TestLiveVoteTimeoutAborts(t *testing.T) {
	net := netsim.NewChanNetwork()
	kv := newKV("db")
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{kv}, WithTimeout(50*time.Millisecond, 50*time.Millisecond))
	coord.Start()
	defer coord.Stop()
	// S1 exists on the network but never starts its receive loop.
	net.Endpoint("S1")

	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 4}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if out != Aborted {
		t.Fatalf("outcome = %v, want aborted", out)
	}
}

func TestLivePartitionedSubTimesOut(t *testing.T) {
	coord, _, _, kv1, _, net := setupChanTrio(t, WithTimeout(50*time.Millisecond, 50*time.Millisecond))
	net.Partition("C", "S1")
	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 5}
	if err := kv1.Put(ctx, tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"})
	if !errors.Is(err, ErrTimeout) || out != Aborted {
		t.Fatalf("out=%v err=%v, want aborted timeout", out, err)
	}
}

func TestLiveInquiryRecovery(t *testing.T) {
	// A subordinate that learned nothing can inquire; the coordinator
	// answers from its decision table (or the PA presumption).
	coord, s1, _, kv1, _, _ := setupChanTrio(t)
	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 6}
	if err := kv1.Put(ctx, tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if out, err := coord.Commit(ctx, tx.String(), []string{"S1"}); err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	// S1 asks again (e.g. after restarting in doubt): the answer is a
	// re-delivered Commit, which must be idempotent.
	if err := inquire(s1, "C", tx.String()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if v, _ := kv1.ReadCommitted("a"); v != "1" {
		t.Errorf("a = %q after duplicate outcome", v)
	}

	// Unknown transaction: presumption answers abort.
	if err := inquire(s1, "C", protocol.TxID{Origin: "C", Seq: 99}.String()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // abort of unknown tx is a no-op; just ensure no panic
}

// lookup returns the live table entry for tx without creating one.
func (p *Participant) lookup(tx string) (*txState, bool) {
	sh := p.shardFor(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.txs[tx]
	return st, ok
}

// inquire sends p's single recovery inquiry for txName to the
// coordinator, carrying the presumption the Prepare announced; p's
// receive loop applies the answer (RecoverInDoubt is the retrying form).
func inquire(p *Participant, coordinator, txName string) error {
	m := protocol.Message{Type: protocol.MsgInquire, Tx: txName}
	if st, ok := p.lookup(txName); ok {
		p.call(st, func() { m.Presume = st.sub.Presume })
	}
	return p.send(coordinator, m)
}

func TestLiveCommitOverTCP(t *testing.T) {
	epC, err := netsim.ListenTCP("C", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epS, err := netsim.ListenTCP("S", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epC.Register("S", epS.Addr())
	epS.Register("C", epC.Addr())

	kvS := newKV("dbs")
	kvC := newKV("dbc")
	coord := NewParticipant("C", epC, wal.New(wal.NewMemStore()), []protocol.Resource{kvC})
	sub := NewParticipant("S", epS, wal.New(wal.NewMemStore()), []protocol.Resource{kvS})
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 7}
	if err := kvS.Put(ctx, tx, "k", "over-tcp"); err != nil {
		t.Fatal(err)
	}
	if err := kvC.Put(ctx, tx, "local", "yes"); err != nil {
		t.Fatal(err)
	}
	out, err := coord.Commit(ctx, tx.String(), []string{"S"})
	if err != nil || out != Committed {
		t.Fatalf("tcp commit = %v, %v", out, err)
	}
	waitAcked(t, coord)
	if v, _ := kvS.ReadCommitted("k"); v != "over-tcp" {
		t.Errorf("k = %q", v)
	}
}

func TestLiveManyConcurrentTransactions(t *testing.T) {
	coord, _, _, kv1, kv2, _ := setupChanTrio(t)
	ctx := context.Background()
	const n = 48
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			tx := protocol.TxID{Origin: "C", Seq: uint64(100 + i)}
			key := tx.String()
			if err := kv1.Put(ctx, tx, key, "v"); err != nil {
				errs <- err
				return
			}
			if err := kv2.Put(ctx, tx, key, "v"); err != nil {
				errs <- err
				return
			}
			out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"})
			if err != nil {
				errs <- err
				return
			}
			if out != Committed {
				errs <- errors.New("not committed")
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiveRecoverInDoubt(t *testing.T) {
	// A subordinate prepares, "crashes" (its process is replaced by a
	// fresh participant over the same durable log), and recovers its
	// in-doubt transaction by inquiring the coordinator.
	net := netsim.NewChanNetwork()
	subStore := wal.NewMemStore()
	subLog := wal.New(subStore)
	kv := protocol.NewStaticResource("rs")

	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")},
		WithTimeout(100*time.Millisecond, 50*time.Millisecond))
	sub := NewParticipant("S", net.Endpoint("S"), subLog, []protocol.Resource{kv})
	coord.Start()
	sub.Start()
	defer coord.Stop()

	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 50}
	// Commit; the sub's ack path runs normally so the coordinator has
	// the decision recorded.
	if out, err := coord.Commit(ctx, tx.String(), []string{"S"}); err != nil || out != Committed {
		t.Fatalf("commit = %v %v", out, err)
	}

	// "Crash": stop the sub, lose its volatile state, keep the log —
	// and keep only its Prepared record to simulate a crash right
	// after the force. The replacement process runs under a new
	// transport identity (a restarted node redialing), so the kept
	// records are re-attributed to it.
	sub.Stop()
	subLog.Crash()
	recs, err := wal.New(subStore).Records()
	if err != nil {
		t.Fatal(err)
	}
	store2 := wal.NewMemStore()
	for _, r := range recs {
		if r.Kind == "Prepared" {
			r.Node = "S2"
			store2.Append(r)
		}
	}
	store2.Sync()
	log2 := wal.New(store2)

	sub2 := NewParticipant("S2", net.Endpoint("S2"), log2, []protocol.Resource{protocol.NewStaticResource("rs2")})
	sub2.Start()
	defer sub2.Stop()

	inDoubt, err := sub2.RecoverInDoubt(context.Background(), "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 1 || inDoubt[0] != tx.String() {
		t.Fatalf("in-doubt = %v", inDoubt)
	}
	// The coordinator's answer (Commit) reaches S2 and is logged.
	waitForRecord := func() bool {
		recs, _ := log2.Records()
		for _, r := range recs {
			if r.Kind == "Committed" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(2 * time.Second)
	for !waitForRecord() {
		if time.Now().After(deadline) {
			t.Fatal("recovered sub never learned the outcome")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLiveRecoverInDoubtPresumedAbort(t *testing.T) {
	// The coordinator has no memory of the transaction: the inquiry is
	// answered with the PA presumption (abort).
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")})
	coord.Start()
	defer coord.Stop()

	store := wal.NewMemStore()
	store.Append(wal.Record{Tx: "C:77", Node: "S", Kind: "Prepared", Forced: true})
	store.Sync()
	log := wal.New(store)
	kv := newKV("dbs")
	sub := NewParticipant("S", net.Endpoint("S"), log, []protocol.Resource{kv})
	sub.Start()
	defer sub.Stop()

	inDoubt, err := sub.RecoverInDoubt(context.Background(), "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 1 {
		t.Fatalf("in-doubt = %v", inDoubt)
	}
	// The abort presumption arrives; nothing to assert on state except
	// that the sub stays healthy (an Aborted record is non-forced and
	// may stay buffered).
	time.Sleep(20 * time.Millisecond)
}

func TestLiveRecoverNothingInDoubt(t *testing.T) {
	net := netsim.NewChanNetwork()
	log := wal.New(wal.NewMemStore())
	sub := NewParticipant("S", net.Endpoint("S"), log, nil)
	sub.Start()
	defer sub.Stop()
	net.Endpoint("C")
	inDoubt, err := sub.RecoverInDoubt(context.Background(), "C")
	if err != nil || len(inDoubt) != 0 {
		t.Fatalf("in-doubt = %v, %v", inDoubt, err)
	}
}
