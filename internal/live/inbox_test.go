package live

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestLiveDrainersExitWhenIdle commits a few hundred transactions of
// every variant among three participants, each coordinating a share
// with the other two as subordinates, and checks that nothing is left
// behind once they go idle: every state table is empty, and the
// goroutine count is back where it was before the run — no drainer
// stays parked on an empty inbox.
func TestLiveDrainersExitWhenIdle(t *testing.T) {
	parts, before := commitAmongThree(t, netsim.NewChanNetwork(), []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA,
		protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC})
	waitUntil(t, 5*time.Second, func() bool {
		for _, p := range parts {
			if p.StateTableSize() != 0 {
				return false
			}
		}
		// Outbound flushers and the resender are transient too: wait
		// for them to go as well.
		return runtime.NumGoroutine() <= before
	})
}

// commitAmongThree starts participants A, B and C on net, and has each
// coordinate 100 transactions with the other two as subordinates,
// cycling through variants; every commit must succeed. It returns the
// participants, stopped at cleanup, and the goroutine count taken
// before the first commit.
func commitAmongThree(t *testing.T, net *netsim.ChanNetwork, variants []protocol.Variant) (map[string]*Participant, int) {
	t.Helper()
	names := []string{"A", "B", "C"}
	parts := make(map[string]*Participant)
	for _, n := range names {
		p := NewParticipant(n, net.Endpoint(n), wal.New(wal.NewMemStore()),
			[]protocol.Resource{protocol.NewStaticResource("r" + n)},
			WithTimeout(2*time.Second, 2*time.Second),
			WithRetry(clock.RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		parts[n] = p
		t.Cleanup(p.Stop)
	}
	before := runtime.NumGoroutine()

	const perCoord = 100
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*perCoord)
	for i, n := range names {
		subs := append(append([]string{}, names[:i]...), names[i+1:]...)
		wg.Add(1)
		go func(p *Participant) {
			defer wg.Done()
			for seq := 1; seq <= perCoord; seq++ {
				tx := protocol.TxID{Origin: protocol.NodeID(p.Name()), Seq: uint64(seq)}.String()
				v := variants[seq%len(variants)]
				if out, err := p.CommitVariant(context.Background(), tx, subs, v); out != Committed || err != nil {
					errs <- fmt.Errorf("%s under %v: %v, %v", tx, v, out, err)
				}
			}
		}(parts[n])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return parts, before
}

// blockingSyncStore blocks every Sync once armed, until released.
type blockingSyncStore struct {
	*wal.MemStore
	armed   chan struct{} // closed to make Syncs block
	entered chan struct{} // closed when the first blocked Sync begins
	release chan struct{} // closed to let blocked Syncs return
	once    sync.Once
}

func (s *blockingSyncStore) Sync() error {
	select {
	case <-s.armed:
		s.once.Do(func() { close(s.entered) })
		<-s.release
	default:
	}
	return s.MemStore.Sync()
}

// TestLiveStopWithDrainerBlockedInForce stops a subordinate whose
// drainer is stuck forcing its Prepared record: Stop must return
// without it, and the drainer must still finish, and exit, once the
// force completes.
func TestLiveStopWithDrainerBlockedInForce(t *testing.T) {
	net := netsim.NewChanNetwork()
	store := &blockingSyncStore{MemStore: wal.NewMemStore(), armed: make(chan struct{}),
		entered: make(chan struct{}), release: make(chan struct{})}
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithTimeout(time.Second, time.Second))
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(store),
		[]protocol.Resource{protocol.NewStaticResource("rs")}, WithTimeout(time.Second, time.Second))
	for _, p := range []*Participant{coord, sub} {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer coord.Stop()
	close(store.armed)

	tx := protocol.TxID{Origin: "C", Seq: 1}.String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Commit(ctx, tx, []string{"S"})
	select {
	case <-store.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the subordinate never forced its Prepared record")
	}

	stopped := make(chan struct{})
	go func() {
		sub.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return while a drainer was blocked in a force")
	}

	st, ok := sub.lookup(tx)
	if !ok {
		t.Fatal("the subordinate has no entry for the transaction")
	}
	close(store.release)
	waitUntil(t, 5*time.Second, func() bool {
		st.sh.mu.Lock()
		defer st.sh.mu.Unlock()
		return !st.consuming
	})
}
