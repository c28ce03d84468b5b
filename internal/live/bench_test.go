package live

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// groupCommitLog returns an in-memory log under the fixed §4 group
// commit policy the throughput benchmarks run with: batches of 8
// forces, a 200µs wall-clock window.
func groupCommitLog() *wal.Log {
	return wal.New(wal.NewMemStore()).WithPolicy(wal.NewGroupCommit(8, 200*time.Microsecond))
}

// BenchmarkLiveCommitChannels measures end-to-end live PA commits over
// the in-process channel transport: goroutine scheduling + two log
// forces + four messages per commit.
func BenchmarkLiveCommitChannels(b *testing.B) {
	net := netsim.NewChanNetwork()
	kv := protocol.NewStaticResource("r")
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), []protocol.Resource{protocol.NewStaticResource("rc")})
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()), []protocol.Resource{kv})
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := protocol.TxID{Origin: "C", Seq: uint64(i + 1)}
		out, err := coord.Commit(ctx, tx.String(), []string{"S"})
		if err != nil || out != Committed {
			b.Fatalf("commit %d: %v %v", i, out, err)
		}
	}
}

// BenchmarkLiveCommitTCP is the same protocol over loopback TCP: the
// realistic floor for distributed commit latency on one machine.
func BenchmarkLiveCommitTCP(b *testing.B) {
	epC, err := netsim.ListenTCP("C", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	epS, err := netsim.ListenTCP("S", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	epC.Register("S", epS.Addr())
	epS.Register("C", epC.Addr())
	coord := NewParticipant("C", epC, wal.New(wal.NewMemStore()), []protocol.Resource{protocol.NewStaticResource("rc")})
	sub := NewParticipant("S", epS, wal.New(wal.NewMemStore()), []protocol.Resource{protocol.NewStaticResource("rs")})
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := protocol.TxID{Origin: "C", Seq: uint64(i + 1)}
		out, err := coord.Commit(ctx, tx.String(), []string{"S"})
		if err != nil || out != Committed {
			b.Fatalf("commit %d: %v %v", i, out, err)
		}
	}
}

// BenchmarkLiveFanout scales subordinate count.
func BenchmarkLiveFanout(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("subs%d", n), func(b *testing.B) {
			net := netsim.NewChanNetwork()
			coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{protocol.NewStaticResource("rc")})
			coord.Start()
			defer coord.Stop()
			var names []string
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("S%d", i)
				names = append(names, name)
				p := NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
					[]protocol.Resource{protocol.NewStaticResource("r" + name)})
				p.Start()
				defer p.Stop()
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := protocol.TxID{Origin: "C", Seq: uint64(i + 1)}
				out, err := coord.Commit(ctx, tx.String(), names)
				if err != nil || out != Committed {
					b.Fatalf("commit: %v %v", out, err)
				}
			}
		})
	}
}

// BenchmarkLiveThroughput measures pipelined commit throughput: many
// worker goroutines issue transactions concurrently against one
// coordinator with group commit coalescing the log forces, and the
// metrics registry's latency histogram reports the distribution. The
// benchmark reports commits/sec and p50/p99 latency from the metrics
// snapshot.
func BenchmarkLiveThroughput(b *testing.B) {
	const workers = 16
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	coord := NewParticipant("C", net.Endpoint("C"), groupCommitLog(),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithMetrics(reg))
	s1 := NewParticipant("S1", net.Endpoint("S1"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("r1")})
	s2 := NewParticipant("S2", net.Endpoint("S2"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("r2")})
	coord.Start()
	s1.Start()
	s2.Start()
	defer coord.Stop()
	defer s1.Stop()
	defer s2.Stop()

	ctx := context.Background()
	var seq atomic.Uint64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > uint64(b.N) {
					return
				}
				tx := protocol.TxID{Origin: "C", Seq: n}
				out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"})
				if err != nil || out != Committed {
					b.Errorf("commit %d: %v %v", n, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	snap := reg.Snapshot()
	if snap.Latency.Count > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/sec")
		b.ReportMetric(float64(snap.Latency.P50.Microseconds()), "p50_us")
		b.ReportMetric(float64(snap.Latency.P99.Microseconds()), "p99_us")
	}
}

// benchParallelMultiSub drives the headline throughput scenario: many
// worker goroutines pipelining commits from one coordinator to several
// subordinates, every participant on a group-commit log.
func benchParallelMultiSub(b *testing.B, tcp bool) {
	const (
		workers = 16
		subs    = 3
	)

	names := make([]string, subs)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
	}
	var parts []*Participant
	if tcp {
		eps := make(map[string]*netsim.TCPEndpoint, subs+1)
		for _, name := range append([]string{"C"}, names...) {
			ep, err := netsim.ListenTCP(name, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			eps[name] = ep
		}
		for from, ep := range eps {
			for to, other := range eps {
				if from != to {
					ep.Register(to, other.Addr())
				}
			}
		}
		for name, ep := range eps {
			parts = append(parts, NewParticipant(name, ep, groupCommitLog(),
				[]protocol.Resource{protocol.NewStaticResource("r" + name)}))
		}
	} else {
		net := netsim.NewChanNetwork()
		for _, name := range append([]string{"C"}, names...) {
			parts = append(parts, NewParticipant(name, net.Endpoint(name), groupCommitLog(),
				[]protocol.Resource{protocol.NewStaticResource("r" + name)}))
		}
	}
	var coord *Participant
	for _, p := range parts {
		if p.Name() == "C" {
			coord = p
		}
		p.Start()
	}
	defer func() {
		for _, p := range parts {
			p.Stop()
		}
	}()

	ctx := context.Background()
	var seq atomic.Uint64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > uint64(b.N) {
					return
				}
				tx := protocol.TxID{Origin: "C", Seq: n}
				out, err := coord.Commit(ctx, tx.String(), names)
				if err != nil || out != Committed {
					b.Errorf("commit %d: %v %v", n, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/sec")
}

// BenchmarkLiveParallelMultiSub is the acceptance benchmark for the
// hot path: 16 workers × 3 subordinates over the in-process channel
// transport, with the sharded state table and flow coalescing. The
// sub-benchmark keeps the name "optimized" that the gate keys on.
func BenchmarkLiveParallelMultiSub(b *testing.B) {
	b.Run("optimized", func(b *testing.B) { benchParallelMultiSub(b, false) })
}

// BenchmarkLiveParallelMultiSubTCP is the same scenario over loopback
// TCP.
func BenchmarkLiveParallelMultiSubTCP(b *testing.B) {
	b.Run("optimized", func(b *testing.B) { benchParallelMultiSub(b, true) })
}

// benchParallelMultiSubFsync is the fsync-honest flavor of the
// headline scenario: every participant logs to a real preallocated
// segment store with real fdatasync, so a PA commit pays its two
// forced writes (coordinator commit record, subordinate prepare
// record) against the device. adaptive combines forces through the
// group-commit pipeline; immediate pays one device sync per force —
// the paper's forced-write cost model taken literally.
func benchParallelMultiSubFsync(b *testing.B, adaptive bool) {
	const (
		workers = 16
		subs    = 3
	)
	var pOpts []Option
	if adaptive {
		pOpts = append(pOpts, WithAdaptiveCommit(2*time.Millisecond))
	}
	names := make([]string, subs)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
	}
	eps := make(map[string]*netsim.TCPEndpoint, subs+1)
	for _, name := range append([]string{"C"}, names...) {
		ep, err := netsim.ListenTCP(name, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		eps[name] = ep
	}
	for from, ep := range eps {
		for to, other := range eps {
			if from != to {
				ep.Register(to, other.Addr())
			}
		}
	}
	dir := b.TempDir()
	var parts []*Participant
	var coord *Participant
	stores := make([]*wal.SegmentStore, 0, subs+1)
	for name, ep := range eps {
		store, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(true))
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		stores = append(stores, store)
		p := NewParticipant(name, ep, wal.New(store),
			[]protocol.Resource{protocol.NewStaticResource("r" + name)}, pOpts...)
		if name == "C" {
			coord = p
		}
		parts = append(parts, p)
	}
	for _, p := range parts {
		p.Start()
	}
	defer func() {
		for _, p := range parts {
			p.Stop()
		}
	}()

	ctx := context.Background()
	var seq atomic.Uint64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > uint64(b.N) {
					return
				}
				tx := protocol.TxID{Origin: "C", Seq: n}
				out, err := coord.Commit(ctx, tx.String(), names)
				if err != nil || out != Committed {
					b.Errorf("commit %d: %v %v", n, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/sec")
	var forces, phys int64
	for _, p := range parts {
		forces += int64(p.Log().Stats().Forces)
	}
	for _, s := range stores {
		phys += int64(s.PhysSyncs())
	}
	if forces > 0 {
		b.ReportMetric(float64(phys)/float64(forces), "syncs/force")
	}
}

// BenchmarkLiveParallelMultiSubTCPFsync is the durable acceptance
// benchmark: 16 workers × 3 subordinates over loopback TCP with every
// log force hitting a real fdatasync. The adaptive/immediate pair is
// the fsync-honest A/B the committed baseline gates on.
func BenchmarkLiveParallelMultiSubTCPFsync(b *testing.B) {
	b.Run("adaptive", func(b *testing.B) { benchParallelMultiSubFsync(b, true) })
	b.Run("immediate", func(b *testing.B) { benchParallelMultiSubFsync(b, false) })
}

// benchVariantTCP drives one commit variant over loopback TCP with a
// full mesh (Paxos Commit's ballot-0 accepts flow subordinate to
// subordinate) and reports throughput and the latency distribution
// from the metrics histogram. With fsync set, every participant logs
// to a real preallocated segment store with real fdatasync behind the
// adaptive force pipeline, and the benchmark additionally reports
// syncs/force — the physical price of each variant's forced-write
// budget.
func benchVariantTCP(b *testing.B, variant protocol.Variant, fsync bool) {
	const (
		workers = 16
		subs    = 2 // acceptor set {C, S1, S2}: one failure tolerated
	)
	names := make([]string, subs)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
	}
	eps := make(map[string]*netsim.TCPEndpoint, subs+1)
	for _, name := range append([]string{"C"}, names...) {
		ep, err := netsim.ListenTCP(name, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		eps[name] = ep
	}
	for from, ep := range eps {
		for to, other := range eps {
			if from != to {
				ep.Register(to, other.Addr())
			}
		}
	}
	var dir string
	if fsync {
		dir = b.TempDir()
	}
	reg := metrics.New()
	var parts []*Participant
	var coord *Participant
	var stores []*wal.SegmentStore
	for name, ep := range eps {
		opts := []Option{WithVariant(variant)}
		if fsync {
			opts = append(opts, WithAdaptiveCommit(2*time.Millisecond))
		}
		if name == "C" {
			opts = append(opts, WithMetrics(reg))
		}
		var log *wal.Log
		if fsync {
			store, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(true))
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			stores = append(stores, store)
			log = wal.New(store)
		} else {
			log = groupCommitLog()
		}
		p := NewParticipant(name, ep, log,
			[]protocol.Resource{protocol.NewStaticResource("r" + name)}, opts...)
		if name == "C" {
			coord = p
		}
		p.Start()
		parts = append(parts, p)
	}
	defer func() {
		for _, p := range parts {
			p.Stop()
		}
	}()

	ctx := context.Background()
	var seq atomic.Uint64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > uint64(b.N) {
					return
				}
				tx := protocol.TxID{Origin: "C", Seq: n}
				out, err := coord.Commit(ctx, tx.String(), names)
				if err != nil || out != Committed {
					b.Errorf("commit %d: %v %v", n, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/sec")
	if snap := reg.Snapshot(); snap.Latency.Count > 0 {
		b.ReportMetric(float64(snap.Latency.P50.Microseconds()), "p50_us")
		b.ReportMetric(float64(snap.Latency.P99.Microseconds()), "p99_us")
	}
	if fsync {
		var forces, phys int64
		for _, p := range parts {
			forces += int64(p.Log().Stats().Forces)
		}
		for _, s := range stores {
			phys += int64(s.PhysSyncs())
		}
		if forces > 0 {
			b.ReportMetric(float64(phys)/float64(forces), "syncs/force")
		}
	}
}

// BenchmarkLivePaxosVsBasicTCP is the non-blocking-commit price tag:
// Paxos Commit against the blocking Basic2PC on identical trees over
// loopback TCP. The analytic model (internal/analytic) prices Paxos
// at 2s+a-1 flows against the baseline's 4s, with one forced write on
// the coordinator's critical path for both — the benchmark records
// what that costs end to end.
func BenchmarkLivePaxosVsBasicTCP(b *testing.B) {
	b.Run("Basic2PC", func(b *testing.B) { benchVariantTCP(b, protocol.VariantBaseline, false) })
	b.Run("PaxosCommit", func(b *testing.B) { benchVariantTCP(b, protocol.VariantPaxos, false) })
}

// BenchmarkLive1PCVsBasicTCP is the one-phase fast path's price tag:
// the logless vote-before-decide variant against Basic2PC on identical
// 2-subordinate trees over loopback TCP. The analytic model prices the
// tree at one forced write total (the coordinator's combined decision
// record) against the baseline's 2n-1, with the voters' prepare forces
// and the ack round both off the caller's critical path — the p50 gap
// is the headline, and the fsync-honest pair shows the saved device
// syncs directly (syncs/force collapses with only one log forcing).
func BenchmarkLive1PCVsBasicTCP(b *testing.B) {
	b.Run("Basic2PC", func(b *testing.B) { benchVariantTCP(b, protocol.VariantBaseline, false) })
	b.Run("OnePhase", func(b *testing.B) { benchVariantTCP(b, protocol.Variant1PC, false) })
	b.Run("Basic2PCFsync", func(b *testing.B) { benchVariantTCP(b, protocol.VariantBaseline, true) })
	b.Run("OnePhaseFsync", func(b *testing.B) { benchVariantTCP(b, protocol.Variant1PC, true) })
}
