package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

const (
	// waitPollEvery is the lockmgr waiter poll period: the admission
	// controller's sample period, since every TotalWaiters call walks
	// every lock state ever created.
	waitPollEvery = 100 * time.Millisecond
	// waitFracFloor separates the contended workload from the
	// uncontended one in the traced run's layer-separation check.
	waitFracFloor = 0.005
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindRoot   spanKind = iota // the client call
	kindStage                  // one /v1/stage call
	kindAppend                 // wal.Store Append
	kindSync                   // wal.Store Sync
)

var kindNames = [...]string{"client.commit", "server.stage", "wal.append", "wal.sync"}

// span is one timed call at a layer boundary, kept small because a
// traced run records several per transaction. Spans of a transaction
// share its tx id; the root is the client call and every other span
// carrying the same tx is its child. Times are offsets from the
// recorder's origin.
type span struct {
	kind       spanKind
	node       uint8 // 1 + index into shardNames; 0: not on one daemon
	tx         string
	start, end time.Duration
	// coord is the coordinator-reported latency (root spans only).
	coord time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. It records only
// while on is set; start sets the origin and switches it on.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (r *recorder) start() {
	r.origin = time.Now()
	r.on.Store(true)
}

// at is t as an offset from the origin.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.origin) }

// add keeps s unless recording has stopped: a late Append or Sync that
// saw on set before stop cleared it is dropped here, so the spans do
// not change once stop returns.
func (r *recorder) add(s span) {
	r.mu.Lock()
	if r.on.Load() {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// stop ends recording; the spans are safe to read once it returns.
func (r *recorder) stop() {
	r.on.Store(false)
	r.mu.Lock() // wait out an add in progress; later ones see on cleared
	r.mu.Unlock()
}

// byTx groups non-root spans by transaction.
func (r *recorder) byTx() map[string][]span {
	out := make(map[string][]span)
	for _, s := range r.spans {
		if s.tx != "" && s.kind != kindRoot {
			out[s.tx] = append(out[s.tx], s)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to [from, to]: the part of a parent span its children cover.
func covered(children []span, from, to time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, from), min(c.end, to)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// write saves every span as one JSON line, times in microseconds from
// the origin; a root's self_us is its duration minus what its children
// cover.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	children := r.byTx()
	type line struct {
		Name    string  `json:"name"`
		Tx      string  `json:"tx,omitempty"`
		Node    string  `json:"node,omitempty"`
		Parent  string  `json:"parent,omitempty"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
		SelfUS  float64 `json:"self_us,omitempty"`
		CoordUS float64 `json:"coord_us,omitempty"`
	}
	for _, s := range r.spans {
		l := line{Name: kindNames[s.kind], Tx: s.tx, StartUS: us(s.start), DurUS: us(s.dur())}
		if s.node > 0 {
			l.Node = shardNames[s.node-1]
		}
		if s.kind == kindRoot {
			l.SelfUS = us(s.dur() - covered(children[s.tx], s.start, s.end))
			l.CoordUS = us(s.coord)
		} else if s.tx != "" {
			l.Parent = kindNames[kindRoot]
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// counters are the layers' cumulative counters, summed over the fleet.
type counters struct {
	msgs, packets, forces, syncs, states int
	hold                                 time.Duration
	stageOps, shed                       float64
	walBytes                             int64
}

func (r *rig) counters(ctx context.Context) (counters, error) {
	var c counters
	for i, s := range r.f.servers {
		reg := s.Registry()
		for _, n := range reg.Nodes() {
			nc := reg.Node(n)
			c.msgs += nc.MessagesSent
			c.packets += nc.PacketsSent
		}
		ls := s.Participant().Log().Stats()
		c.forces += ls.Forces
		c.syncs += ls.Syncs
		c.states += s.Participant().StateTableSize()
		c.hold += s.Store().Locks().TotalHoldTime()
		m, err := scrape(ctx, r.hc, r.f.url(i))
		if err != nil {
			return c, fmt.Errorf("scrape %s: %w", shardNames[i], err)
		}
		c.stageOps += m["twopc_stage_ops_total"]
		c.shed += m["twopc_admission_shed_total"]
		if len(r.f.stores) > 0 {
			c.walBytes += r.f.stores[i].bytes.Load()
		}
	}
	return c, nil
}

// traced runs the traced window after the untraced baseline and
// derives the per-layer metrics from its spans and counters.
func (r *rig) traced(ctx context.Context, window time.Duration, base windowStats) (windowStats, map[string]metric, error) {
	if err := r.f.interposeStageProxies(r.rec); err != nil {
		return windowStats{}, nil, err
	}
	c0, err := r.counters(ctx)
	if err != nil {
		return windowStats{}, nil, err
	}
	poll := pollWaiters(r.f.servers, waitPollEvery)
	r.rec.start()
	st := measure(ctx, r.clients, window, r.rec)
	r.rec.stop()
	poll.finish()
	c1, err := r.counters(ctx)
	if err != nil {
		return st, nil, err
	}

	commits := float64(max(st.committed, 1))
	per := func(x float64) float64 { return x / commits }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var rtt, coord, stage, commit, syncs []time.Duration
	stageCalls := 0
	children := r.rec.byTx()
	for _, s := range r.rec.spans {
		switch s.kind {
		case kindRoot:
			rtt = append(rtt, s.dur()-s.coord)
			coord = append(coord, s.coord)
			commit = append(commit, s.coord-covered(children[s.tx], s.start, s.end))
		case kindStage:
			stage = append(stage, s.dur())
			stageCalls++
		case kindSync:
			syncs = append(syncs, s.dur())
		}
	}
	msgs, packets := float64(c1.msgs-c0.msgs), float64(c1.packets-c0.packets)
	forces := float64(c1.forces - c0.forces)
	m := map[string]metric{
		"server.http_us":                {us(quantile(rtt, 0.5)), "us"},
		"server.coord_us":               {us(quantile(coord, 0.5)), "us"},
		"server.stage_us":               {us(quantile(stage, 0.5)), "us"},
		"server.stage_calls_per_commit": {per(float64(stageCalls)), "count"},
		"kvstore.staged_ops_per_commit": {per(c1.stageOps - c0.stageOps), "count"},
		"live.commit_us":                {us(quantile(commit, 0.5)), "us"},
		"live.state_entries_per_commit": {per(float64(c1.states - c0.states)), "count"},
		"protocol.msgs_per_commit":      {per(msgs), "count"},
		"netsim.packets_per_commit":     {per(packets), "count"},
		"netsim.msgs_per_packet":        {ratio(msgs, packets), "count"},
		"wal.forces_per_commit":         {per(forces), "count"},
		"wal.syncs_per_force":           {ratio(float64(c1.syncs-c0.syncs), forces), "ratio"},
		"wal.append_b_per_commit":       {per(float64(c1.walBytes - c0.walBytes)), "B"},
		"wal.sync_us":                   {us(quantile(syncs, 0.5)), "us"},
		"lockmgr.hold_us_per_commit":    {per(us(c1.hold - c0.hold)), "us"},
		"lockmgr.wait_frac":             {ratio(float64(poll.hits), float64(poll.polls)), "frac"},
		"lockmgr.poll_us":               {ratio(us(poll.cost), float64(poll.polls)), "us"},
		"admission.shed":                {c1.shed - c0.shed, "count"},
		"runtime.gc_cpu_frac":           {ratio(st.gcCPU, st.rtCPU), "frac"},
		"runtime.gc_per_kcommit":        {per(1000 * float64(st.gcs)), "count"},
		"client.fail_frac":              {ratio(float64(st.aborted+st.errors)+c1.shed-c0.shed, float64(st.attempted)), "frac"},
		"trace.commits_per_s_ratio":     {ratio(st.perSec(), base.perSec()), "ratio"},
		"trace.p50_ms_ratio":            {ratio(st.p50MS(), base.p50MS()), "ratio"},
		"trace.cpu_us_per_commit_ratio": {ratio(st.cpuPerCommitUS(), base.cpuPerCommitUS()), "ratio"},
	}
	return st, m, nil
}

// separation checks that each workload still exercises the layers it
// exists for.
func separation(w workload, m map[string]metric) error {
	stage, msgs := m["server.stage_calls_per_commit"].Value, m["protocol.msgs_per_commit"].Value
	wait := m["lockmgr.wait_frac"].Value
	var bad []string
	switch w.name {
	case "local1":
		if stage != 0 || msgs != 0 {
			bad = append(bad, fmt.Sprintf("local1 must bypass staging and the protocol plane: stage calls/commit %.3f, msgs/commit %.3f", stage, msgs))
		}
	case "fanout3":
		if stage < 1 || msgs < 1 {
			bad = append(bad, fmt.Sprintf("fanout3 must stage remotely and run the protocol: stage calls/commit %.3f, msgs/commit %.3f", stage, msgs))
		}
		if wait >= waitFracFloor {
			bad = append(bad, fmt.Sprintf("fanout3 lock wait_frac %.3f, want < %.3f", wait, waitFracFloor))
		}
	case "hotmix3":
		if wait < waitFracFloor {
			bad = append(bad, fmt.Sprintf("hotmix3 lock wait_frac %.3f, want >= %.3f", wait, waitFracFloor))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("layer separation: %s", strings.Join(bad, "; "))
	}
	return nil
}

// waitPoller samples every daemon's lock-manager waiter count.
type waitPoller struct {
	stop        chan struct{}
	wg          sync.WaitGroup
	polls, hits int
	cost        time.Duration
}

func pollWaiters(servers []*server.Server, every time.Duration) *waitPoller {
	p := &waitPoller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				for _, s := range servers {
					start := time.Now()
					n := s.Store().Locks().TotalWaiters()
					p.cost += time.Since(start)
					p.polls++
					if n > 0 {
						p.hits++
					}
				}
			}
		}
	}()
	return p
}

// finish stops the poller; its counts are safe to read afterwards.
func (p *waitPoller) finish() {
	close(p.stop)
	p.wg.Wait()
}
