package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func BenchmarkAppendMem(b *testing.B) {
	l := New(NewMemStore())
	r := Record{Tx: "t", Node: "N", Kind: "LRMUpdate", Data: []byte("payload")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForceMem(b *testing.B) {
	l := New(NewMemStore())
	r := Record{Tx: "t", Node: "N", Kind: "Committed"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Force(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForceFileNoFsync forces through the on-disk segment store
// with fdatasync off: the write path's CPU cost without the device.
func BenchmarkForceFileNoFsync(b *testing.B) {
	s, err := OpenSegmentStore(b.TempDir(), WithSegmentFsync(false))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	l := New(s)
	r := Record{Tx: "t", Node: "N", Kind: "Committed", Data: []byte("0123456789abcdef")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Force(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCommitThroughput measures concurrent force throughput
// with and without group commit — the §4 Group Commits claim that
// batching raises overall system throughput.
func BenchmarkGroupCommitThroughput(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("group%d", size), func(b *testing.B) {
			l := New(NewMemStore())
			if size > 1 {
				l.WithPolicy(NewGroupCommit(size, time.Millisecond))
			}
			const writers = 16
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/writers + 1
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						l.Force(Record{Tx: "t", Kind: "Committed"})
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(l.Stats().Syncs)/float64(l.Stats().Forces), "syncs/force")
		})
	}
}

func BenchmarkRecoveryScan(b *testing.B) {
	store := NewMemStore()
	l := New(store)
	for i := 0; i < 10_000; i++ {
		l.Append(Record{Tx: "t", Kind: "LRMUpdate"})
	}
	l.Sync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := l.Records()
		if err != nil || len(recs) != 10_000 {
			b.Fatalf("scan: %d records, %v", len(recs), err)
		}
	}
}

// benchForceWorkers drives b.N forces across w concurrent workers and
// reports throughput plus the measured amortization factor.
func benchForceWorkers(b *testing.B, l *Log, s *SegmentStore, w int) {
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := Record{Tx: fmt.Sprintf("t%d", i), Node: "N", Kind: "Committed", Data: []byte("0123456789abcdef")}
			for {
				if seq.Add(1) > uint64(b.N) {
					return
				}
				if _, err := l.Force(r); err != nil {
					b.Errorf("force: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "forces/sec")
	if st := l.Stats(); st.Forces > 0 && s.PhysSyncs() > 0 {
		// Physical device flushes per logical force — the paper's
		// forced-write columns assume 1.0; group commit buys this down.
		// With fsync disabled there are no physical syncs to count and
		// the metric is omitted (the stall bench reports stalls/force).
		b.ReportMetric(float64(s.PhysSyncs())/float64(st.Forces), "syncs/force")
	}
}

// BenchmarkWALForceFsync is the fsync-honest force benchmark: a real
// segmented store on real disk with real fdatasync, under 1..64
// concurrent forcers, per-force sync against the adaptive pipeline.
// The committed gate (cmd/benchdiff) holds syncs/force at 16 forcers.
func BenchmarkWALForceFsync(b *testing.B) {
	for _, workers := range []int{1, 4, 16, 64} {
		for _, mode := range []string{"immediate", "adaptive"} {
			b.Run(fmt.Sprintf("forcers%d/%s", workers, mode), func(b *testing.B) {
				s, err := OpenSegmentStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				l := New(s)
				if mode == "adaptive" {
					l.WithPolicy(NewPipeline(nil, 2*time.Millisecond))
				}
				defer l.Close()
				benchForceWorkers(b, l, s, workers)
			})
		}
	}
}

// BenchmarkWALForceStall injects a 5ms device stall per sync: the
// scenario where per-force sync collapses (16 forcers × 5ms each
// serialized) while group commit amortizes one stall per batch.
func BenchmarkWALForceStall(b *testing.B) {
	const stall = 5 * time.Millisecond
	for _, mode := range []string{"immediate", "adaptive"} {
		b.Run(mode, func(b *testing.B) {
			var stalls atomic.Int64
			s, err := OpenSegmentStore(b.TempDir(), WithSegmentFsync(false),
				WithSyncHook(func() { stalls.Add(1); time.Sleep(stall) }))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			l := New(s)
			if mode == "adaptive" {
				l.WithPolicy(NewPipeline(nil, 20*time.Millisecond))
			}
			defer l.Close()
			benchForceWorkers(b, l, s, 16)
			if st := l.Stats(); st.Forces > 0 {
				b.ReportMetric(float64(stalls.Load())/float64(st.Forces), "stalls/force")
			}
		})
	}
}
