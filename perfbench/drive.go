package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
)

// Per-transaction outcomes a clientRun records, indexed by seq.
const (
	outCommitted byte = iota + 1
	outAborted
	outError
)

// readObs is one value a get returned: the key and the parsed writer.
type readObs struct {
	key    int32
	seq    int32
	client int8
	op     int8
}

// clientRun is one closed-loop client: it keeps one transaction in
// flight, drawing from its own generator. Sample buffers are sized up
// front so the benchmark's own bookkeeping does not show up as heap
// growth of the system under test.
type clientRun struct {
	id      int
	c       *client.Client
	g       *gen
	outcome []byte
	reads   []readObs
	bad     []string // malformed or missing read results
	lastErr error

	// samples of the current window, committed transactions only
	lat  []time.Duration
	done []time.Duration // completion time from the window start
}

func newClientRun(id int, c *client.Client, g *gen, txCap int) *clientRun {
	cr := &clientRun{
		id: id, c: c, g: g,
		outcome: make([]byte, 0, txCap),
		lat:     make([]time.Duration, 0, txCap),
		done:    make([]time.Duration, 0, txCap),
	}
	if g.w.getFrac > 0 {
		cr.reads = make([]readObs, 0, txCap*g.w.width)
	}
	return cr
}

// run issues up to n transactions (n <= 0: unbounded) until until
// passes (zero: no deadline). With origin set it keeps latency
// samples; with rec recording it adds a root span per transaction.
func (cr *clientRun) run(ctx context.Context, n int, until, origin time.Time, rec *recorder) {
	for i := 0; n <= 0 || i < n; i++ {
		if !until.IsZero() && !time.Now().Before(until) {
			return
		}
		t := cr.g.next()
		start := time.Now()
		resp, err := cr.c.Commit(ctx, "", t.ops(cr.id))
		end := time.Now()
		if err != nil {
			cr.outcome = append(cr.outcome, outError)
			cr.lastErr = err
			if ctx.Err() != nil {
				return
			}
			continue
		}
		if resp.Outcome != "committed" {
			cr.outcome = append(cr.outcome, outAborted)
			continue
		}
		cr.outcome = append(cr.outcome, outCommitted)
		cr.noteReads(t, resp.Reads)
		if !origin.IsZero() {
			cr.lat = append(cr.lat, end.Sub(start))
			cr.done = append(cr.done, end.Sub(origin))
		}
		if rec != nil && rec.on.Load() {
			rec.add(span{kind: kindRoot, tx: resp.Tx, start: rec.at(start), end: rec.at(end),
				coord: time.Duration(resp.LatencyMS * float64(time.Millisecond))})
		}
	}
}

// noteReads keeps the writer of every value a committed get returned.
// Every key is preloaded, so each get must return a value.
func (cr *clientRun) noteReads(t txn, reads map[string]string) {
	for i, k := range t.keys {
		if t.puts[i] {
			continue
		}
		v, ok := reads[keyName(k)]
		if !ok {
			cr.bad = append(cr.bad, fmt.Sprintf("client %d tx %d: get %s returned no value", cr.id, t.seq, keyName(k)))
			continue
		}
		w, err := parseValue(v)
		if err != nil {
			cr.bad = append(cr.bad, fmt.Sprintf("client %d tx %d: get %s: %v", cr.id, t.seq, keyName(k), err))
			continue
		}
		cr.reads = append(cr.reads, readObs{key: int32(k), client: int8(w.client), seq: int32(w.seq), op: int8(w.op)})
	}
}

// tally counts the outcomes recorded since from.
type tally struct{ attempted, committed, aborted, errors int }

func (cr *clientRun) tally(from int) tally {
	var t tally
	for _, o := range cr.outcome[from:] {
		t.attempted++
		switch o {
		case outCommitted:
			t.committed++
		case outAborted:
			t.aborted++
		default:
			t.errors++
		}
	}
	return t
}

func (t tally) add(o tally) tally {
	return tally{t.attempted + o.attempted, t.committed + o.committed, t.aborted + o.aborted, t.errors + o.errors}
}

// runAll drives every client concurrently and waits for all of them.
func runAll(ctx context.Context, clients []*clientRun, n int, until, origin time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for _, cr := range clients {
		wg.Add(1)
		go func(cr *clientRun) {
			defer wg.Done()
			cr.run(ctx, n, until, origin, rec)
		}(cr)
	}
	wg.Wait()
}

// windowStats is one measured window of closed-loop traffic, cut into
// one-second slices. The rate, latency and CPU figures are medians
// over the slices, so a stall or a noisy neighbour that lasts a
// second moves one slice rather than the result.
type windowStats struct {
	tally
	dur        time.Duration
	allocBytes uint64
	heapStart  uint64 // live heap after GC at the start
	heapGrowth int64  // live heap after GC, end minus start
	slices     []slice
	// runtime-reported GC CPU and total CPU (seconds) and GC cycles,
	// the forced collections around the window excluded
	gcCPU, rtCPU float64
	gcs          uint64
}

// slice is one second of a window: its length, process CPU time and
// the latencies of the transactions that committed in it.
type slice struct {
	dur, cpu time.Duration
	lat      []time.Duration
}

const sliceLen = time.Second

// measure runs the clients for d and measures the process around it.
func measure(ctx context.Context, clients []*clientRun, d time.Duration, rec *recorder) windowStats {
	from := make([]int, len(clients))
	for i, cr := range clients {
		from[i] = len(cr.outcome)
		cr.lat, cr.done = cr.lat[:0], cr.done[:0]
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heap0, alloc0 := mem.HeapAlloc, mem.TotalAlloc
	gcCPU0, rtCPU0, gcs0 := gcSample()
	start := time.Now()

	// Mark the process CPU time at every slice boundary.
	n := max(int(d/sliceLen), 1)
	marks := make([]time.Duration, n+1) // offsets from start
	cpus := make([]time.Duration, n+1)
	cpus[0] = cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i) * d / time.Duration(n)))):
			case <-ctx.Done():
				return
			}
			cpus[i], marks[i] = cpuTime(), time.Since(start)
		}
	}()
	runAll(ctx, clients, 0, start.Add(d), start, rec)
	wg.Wait()

	st := windowStats{dur: time.Since(start), heapStart: heap0}
	gcCPU1, rtCPU1, gcs1 := gcSample()
	st.gcCPU, st.rtCPU, st.gcs = gcCPU1-gcCPU0, rtCPU1-rtCPU0, gcs1-gcs0
	runtime.ReadMemStats(&mem)
	st.allocBytes = mem.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&mem)
	st.heapGrowth = int64(mem.HeapAlloc) - int64(heap0)

	st.slices = make([]slice, n)
	for i := range st.slices {
		st.slices[i] = slice{dur: marks[i+1] - marks[i], cpu: cpus[i+1] - cpus[i]}
	}
	for i, cr := range clients {
		st.tally = st.tally.add(cr.tally(from[i]))
		for j, done := range cr.done {
			// Transactions finishing after the last mark (the
			// clients' final in-flight ones) belong to no slice.
			k := sort.Search(n, func(k int) bool { return marks[k+1] > done })
			if k < n {
				st.slices[k].lat = append(st.slices[k].lat, cr.lat[j])
			}
		}
	}
	return st
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perSlice is the median over the window's slices of f.
func (st windowStats) perSlice(f func(slice) float64) float64 {
	xs := make([]float64, 0, len(st.slices))
	for _, s := range st.slices {
		if len(s.lat) > 0 {
			xs = append(xs, f(s))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

func (st windowStats) perSec() float64 {
	return st.perSlice(func(s slice) float64 { return float64(len(s.lat)) / s.dur.Seconds() })
}

func (st windowStats) cpuPerCommitUS() float64 {
	return st.perSlice(func(s slice) float64 { return us(s.cpu) / float64(len(s.lat)) })
}

func (st windowStats) p50MS() float64 {
	return st.perSlice(func(s slice) float64 { return ms(quantile(s.lat, 0.5)) })
}

func (st windowStats) p99MS() float64 {
	return st.perSlice(func(s slice) float64 { return ms(quantile(s.lat, 0.99)) })
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]time.Duration(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scrape sums every sample of each metric family on a daemon's
// /metrics page, labels ignored.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if f, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += f
		}
	}
	return out, sc.Err()
}

// gcSample reads the runtime's cumulative GC CPU, total CPU (seconds)
// and GC cycle count.
func gcSample() (gcCPU, cpu float64, cycles uint64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}
