package live

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

func TestBackoffScheduleGrowsAndCaps(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2, Jitter: -1}
	bo := rp.Backoff(0)
	var got []time.Duration
	for {
		d, ok := bo.Next()
		if !ok {
			break
		}
		got = append(got, d)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("delays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if bo.Attempts() != 4 {
		t.Errorf("attempts = %d, want 4", bo.Attempts())
	}
}

func TestBackoffJitterOnlyShrinks(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	bo := rp.Backoff(42)
	nominal := []time.Duration{100, 200, 400, 800, 1000, 1000, 1000}
	for i := 0; ; i++ {
		d, ok := bo.Next()
		if !ok {
			break
		}
		max := nominal[i] * time.Millisecond
		if d > max {
			t.Fatalf("delay[%d] = %v exceeds nominal %v (jitter grew)", i, d, max)
		}
		if d < max/2 {
			t.Fatalf("delay[%d] = %v below jitter floor %v", i, d, max/2)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	rp := DefaultRetryPolicy()
	seq := func() []time.Duration {
		bo := rp.Backoff(7)
		var out []time.Duration
		for {
			d, ok := bo.Next()
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// schedule walks a backoff to its end.
func schedule(bo Backoff) []time.Duration {
	var out []time.Duration
	for {
		d, ok := bo.Next()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

// TestJitterSeededByParticipantAndTx checks the per-loop jitter seed:
// the same (participant seed, tx) pair replays the same schedule, and
// other transactions or other loops of the same transaction draw
// different ones.
func TestJitterSeededByParticipantAndTx(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5}
	newP := func(seed int64) *Participant {
		return NewParticipant("C", netsim.NewChanNetwork().Endpoint("C"), wal.New(wal.NewMemStore()), nil,
			WithRetry(rp), WithRetrySeed(seed))
	}
	p, twin, other := newP(11), newP(11), newP(12)
	sched := func(p *Participant, tx, stream string) []time.Duration {
		return schedule(p.retry.Backoff(p.retrySeedFor(tx, stream)))
	}
	same := func(a, b []time.Duration) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	base := sched(p, "C:1", "")
	if len(base) != rp.MaxAttempts-1 {
		t.Fatalf("schedule has %d delays, want %d", len(base), rp.MaxAttempts-1)
	}
	if !same(base, sched(twin, "C:1", "")) {
		t.Fatal("same participant seed and tx gave different schedules")
	}
	for _, tx := range []string{"C:2", "C:10", "D:1", "C:1x"} {
		if same(base, sched(p, tx, "")) {
			t.Errorf("tx %s drew the same schedule as C:1", tx)
		}
	}
	if same(base, sched(p, "C:1", "/acks")) {
		t.Error("vote and ack loops of one tx drew the same schedule")
	}
	if same(base, sched(other, "C:1", "")) {
		t.Error("different participant seeds drew the same schedule")
	}
}

// TestJitterBoundsAndAllocs checks every jittered delay stays within
// [d*(1-Jitter), d] of its nominal step d, and that building a schedule
// and drawing all its delays stays within two allocations.
func TestJitterBoundsAndAllocs(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 300 * time.Millisecond, Jitter: 0.3}
	for seed := int64(0); seed < 500; seed++ {
		nominal := 10 * time.Millisecond
		for i, d := range schedule(rp.Backoff(seed)) {
			lo := time.Duration((1 - rp.Jitter) * float64(nominal))
			if d < lo || d > nominal {
				t.Fatalf("seed %d delay[%d] = %v outside [%v, %v]", seed, i, d, lo, nominal)
			}
			nominal = min(2*nominal, rp.MaxDelay)
		}
	}
	var sum time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		bo := rp.Backoff(sum.Nanoseconds())
		for {
			d, ok := bo.Next()
			if !ok {
				break
			}
			sum += d
		}
	})
	if allocs > 2 {
		t.Fatalf("building and drawing a schedule allocated %.1f times, want <= 2", allocs)
	}
}

// TestRetransmitUnderVirtualClock drives a full commit whose first
// Prepare is lost, with every timer on a virtual clock: the test
// advances time to each scheduled deadline instead of sleeping, and
// the retransmission machinery must deliver the commit.
func TestRetransmitUnderVirtualClock(t *testing.T) {
	vc := clock.NewVirtual()
	// Drop the first packet C sends to S (the Prepare); everything
	// afterwards is reliable.
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", dropFirst(net.Endpoint("C"), "S"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rc")},
		WithClock(vc),
		WithTimeout(10*time.Second, 10*time.Second),
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Jitter: -1}))
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rs")}, WithClock(vc))
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	tx := core.TxID{Origin: "C", Seq: 1}
	done := make(chan struct{})
	var out Outcome
	var err error
	go func() {
		out, err = coord.Commit(context.Background(), tx.String(), []string{"S"})
		close(done)
	}()

	// Drive virtual time: whenever the runtime has a timer armed,
	// advance exactly to it. Yield between steps so goroutines reach
	// their select statements.
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-done:
			if err != nil || out != Committed {
				t.Fatalf("commit = %v, %v", out, err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("commit never completed under virtual time")
		}
		if d, ok := vc.NextDeadline(); ok {
			vc.AdvanceTo(d)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}

// TestVoteTimeoutUnderVirtualClock checks the timeout path with no
// real waiting: the subordinate never answers, virtual time jumps to
// each armed timer, and Commit must abort with ErrTimeout after
// exhausting its retransmissions.
func TestVoteTimeoutUnderVirtualClock(t *testing.T) {
	vc := clock.NewVirtual()
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithClock(vc),
		WithTimeout(2*time.Second, 2*time.Second),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Jitter: -1}))
	coord.Start()
	defer coord.Stop()
	net.Endpoint("S1") // exists, never serves

	tx := core.TxID{Origin: "C", Seq: 2}
	done := make(chan struct{})
	var out Outcome
	var err error
	go func() {
		out, err = coord.Commit(context.Background(), tx.String(), []string{"S1"})
		close(done)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-done:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if out != Aborted {
				t.Fatalf("out = %v, want aborted", out)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("commit never timed out under virtual time")
		}
		if d, ok := vc.NextDeadline(); ok {
			vc.AdvanceTo(d)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCommitCancelledByContext aborts a stalled vote collection via
// context cancellation rather than a timeout.
func TestCommitCancelledByContext(t *testing.T) {
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil,
		WithTimeout(30*time.Second, 30*time.Second))
	coord.Start()
	defer coord.Stop()
	net.Endpoint("S1")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	tx := core.TxID{Origin: "C", Seq: 3}
	out, err := coord.Commit(ctx, tx.String(), []string{"S1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != Aborted {
		t.Fatalf("out = %v, want aborted", out)
	}
}

// dropFirstEndpoint wraps an Endpoint and swallows the first packet
// sent to a chosen peer.
type dropFirstEndpoint struct {
	netsim.Endpoint
	mu      sync.Mutex
	victim  string
	dropped bool
}

func dropFirst(ep netsim.Endpoint, victim string) netsim.Endpoint {
	return &dropFirstEndpoint{Endpoint: ep, victim: victim}
}

func (d *dropFirstEndpoint) Send(to string, pkt protocol.Packet) error {
	d.mu.Lock()
	drop := to == d.victim && !d.dropped
	if drop {
		d.dropped = true
	}
	d.mu.Unlock()
	if drop {
		return nil
	}
	return d.Endpoint.Send(to, pkt)
}
