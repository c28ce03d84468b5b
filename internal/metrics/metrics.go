// Package metrics accumulates the quantities the paper's evaluation
// reports: message flows, packets on the wire (which differ from
// flows when piggybacking is in effect), log writes split into forced
// and non-forced, lock hold time, and commit latency.
//
// A Registry holds one Counters per participant plus run-level
// aggregates, and can summarize itself in the (flows, writes, forced)
// triplet notation of Tables 3 and 4.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Counters is the per-participant tally. All fields are manipulated
// through Registry methods, which serialize access.
type Counters struct {
	MessagesSent     int // protocol messages handed to the transport
	MessagesReceived int
	PacketsSent      int // wire packets; < MessagesSent with piggybacking
	// ProtocolPackets counts packets whose primary message belongs to
	// the commit protocol (not application data). This is the paper's
	// "flows" unit: a piggybacked ack on a data packet costs nothing.
	ProtocolPackets  int
	LogWrites        int
	ForcedWrites     int
	HeuristicCommits int
	HeuristicAborts  int
	HeuristicDamage  int // heuristic decisions that disagreed with the outcome
	Retries          int // protocol retransmissions (prepare, outcome, inquiry)
	InDoubt          int // transactions that entered the in-doubt window here
}

// Triplet is the (#messages, #log writes, #forced writes) notation of
// the paper's Tables 3 and 4.
type Triplet struct {
	Flows  int
	Writes int
	Forced int
}

// String renders the triplet as "f, w, fw" like the paper's columns.
func (t Triplet) String() string {
	return fmt.Sprintf("%d, %d, %d", t.Flows, t.Writes, t.Forced)
}

// Add returns the element-wise sum of two triplets.
func (t Triplet) Add(o Triplet) Triplet {
	return Triplet{t.Flows + o.Flows, t.Writes + o.Writes, t.Forced + o.Forced}
}

// Registry collects counters for a protocol run. The zero value is
// unusable; construct with New.
type Registry struct {
	mu        sync.Mutex
	perNode   map[string]*Counters
	lockHold  map[string]time.Duration // cumulative lock hold time per node
	latency   []time.Duration          // ring of the latencyRing most recent commit latencies
	latNext   int                      // ring slot the next sample overwrites, once full
	latCount  int                      // commit latencies ever recorded
	latSum    time.Duration            // and their sum
	latMax    time.Duration            // and their maximum
	txOutcome map[string]int           // outcome name -> count
	costs     map[string]*txCost       // per-transaction cost ledger (cost.go)
	costSeq   int
	costDone  []*txCost // closed ledger entries in close order, for CostDrainClosed
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		perNode:   make(map[string]*Counters),
		lockHold:  make(map[string]time.Duration),
		txOutcome: make(map[string]int),
	}
}

func (r *Registry) node(name string) *Counters {
	c, ok := r.perNode[name]
	if !ok {
		c = &Counters{}
		r.perNode[name] = c
	}
	return c
}

// MessageSent records one protocol message leaving node. piggybacked
// indicates the message rode an existing packet (no new wire packet).
func (r *Registry) MessageSent(node string, piggybacked bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.node(node)
	c.MessagesSent++
	if !piggybacked {
		c.PacketsSent++
	}
}

// PacketSent classifies one wire packet leaving node. protocol
// reports whether the packet's primary message belongs to the commit
// protocol rather than application data. (PacketsSent itself is
// tallied by MessageSent.)
func (r *Registry) PacketSent(node string, protocol bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if protocol {
		r.node(node).ProtocolPackets++
	}
}

// MessageReceived records one protocol message arriving at node.
func (r *Registry) MessageReceived(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node(node).MessagesReceived++
}

// LogWrite records a log write at node.
func (r *Registry) LogWrite(node string, forced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.node(node)
	c.LogWrites++
	if forced {
		c.ForcedWrites++
	}
}

// Heuristic records a heuristic decision at node. commit selects
// between heuristic-commit and heuristic-abort; damaged reports
// whether the decision later turned out to disagree with the global
// outcome (may also be recorded separately via Damage).
func (r *Registry) Heuristic(node string, commit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.node(node)
	if commit {
		c.HeuristicCommits++
	} else {
		c.HeuristicAborts++
	}
}

// Damage records that a heuristic decision at node disagreed with the
// transaction outcome.
func (r *Registry) Damage(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node(node).HeuristicDamage++
}

// Retry records one protocol retransmission at node: a re-sent
// prepare, a re-delivered outcome, or a repeated recovery inquiry.
func (r *Registry) Retry(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node(node).Retries++
}

// InDoubtEntry records that a transaction entered the in-doubt window
// at node (prepared, outcome unknown, or outcome undeliverable).
func (r *Registry) InDoubtEntry(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node(node).InDoubt++
}

// LockHold accumulates d of lock-hold time at node.
func (r *Registry) LockHold(node string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lockHold[node] += d
}

// latencyRing is how many recent commit latencies the registry keeps
// for percentiles: enough for a stable p99, and a scrape copies and
// sorts no more than this however long the process has run.
const latencyRing = 8192

// Latency records the commit latency of one completed transaction.
// Count, mean and maximum cover every transaction; percentiles cover
// the latencyRing most recent.
func (r *Registry) Latency(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latCount++
	r.latSum += d
	r.latMax = max(r.latMax, d)
	if len(r.latency) < latencyRing {
		r.latency = append(r.latency, d)
		return
	}
	r.latency[r.latNext] = d
	r.latNext = (r.latNext + 1) % latencyRing
}

// recentLatenciesLocked copies the ring, oldest sample first. Caller
// holds r.mu.
func (r *Registry) recentLatenciesLocked() []time.Duration {
	out := make([]time.Duration, 0, len(r.latency))
	out = append(out, r.latency[r.latNext:]...)
	return append(out, r.latency[:r.latNext]...)
}

// Outcome tallies a transaction outcome by name ("committed",
// "aborted", "heuristic-mixed", ...).
func (r *Registry) Outcome(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.txOutcome[name]++
}

// Node returns a copy of the counters for name.
func (r *Registry) Node(name string) Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.perNode[name]; ok {
		return *c
	}
	return Counters{}
}

// Nodes returns the sorted names of all participants seen.
func (r *Registry) Nodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.perNode))
	for n := range r.perNode {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Total returns the run-level triplet: total protocol messages, total
// log writes and total forced writes across all participants.
func (r *Registry) Total() Triplet {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t Triplet
	for _, c := range r.perNode {
		t.Flows += c.MessagesSent
		t.Writes += c.LogWrites
		t.Forced += c.ForcedWrites
	}
	return t
}

// TotalPackets returns the number of wire packets across all nodes.
// With piggybacking this is the quantity the paper's Long-Locks rows
// count as "flows".
func (r *Registry) TotalPackets() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.perNode {
		n += c.PacketsSent
	}
	return n
}

// PacketTriplet is Total with Flows replaced by wire packets.
func (r *Registry) PacketTriplet() Triplet {
	t := r.Total()
	t.Flows = r.TotalPackets()
	return t
}

// ProtocolTriplet is Total with Flows replaced by protocol packets —
// the unit the paper's tables count: every standalone commit-protocol
// transmission is a flow, while messages piggybacked on application
// data are free.
func (r *Registry) ProtocolTriplet() Triplet {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t Triplet
	for _, c := range r.perNode {
		t.Flows += c.ProtocolPackets
		t.Writes += c.LogWrites
		t.Forced += c.ForcedWrites
	}
	return t
}

// LockHoldTime returns the cumulative lock hold time recorded for
// node; node "" sums all nodes.
func (r *Registry) LockHoldTime(node string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if node != "" {
		return r.lockHold[node]
	}
	var sum time.Duration
	for _, d := range r.lockHold {
		sum += d
	}
	return sum
}

// Latencies returns a copy of the most recent commit latencies (up to
// latencyRing of them), oldest first.
func (r *Registry) Latencies() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recentLatenciesLocked()
}

// MeanLatency returns the average latency of every commit recorded, or
// zero when no transactions completed.
func (r *Registry) MeanLatency() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.latCount == 0 {
		return 0
	}
	return r.latSum / time.Duration(r.latCount)
}

// Outcomes returns a copy of the outcome tallies.
func (r *Registry) Outcomes() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.txOutcome))
	for k, v := range r.txOutcome {
		out[k] = v
	}
	return out
}

// HeuristicDamageTotal returns the total damaged heuristic decisions
// across all nodes.
func (r *Registry) HeuristicDamageTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.perNode {
		n += c.HeuristicDamage
	}
	return n
}

// Summary renders a human-readable per-node and total report.
func (r *Registry) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %10s\n", "participant", "sent", "packets", "logs", "forced", "lock-hold")
	for _, n := range r.Nodes() {
		c := r.Node(n)
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %10s\n",
			n, c.MessagesSent, c.PacketsSent, c.LogWrites, c.ForcedWrites, r.LockHoldTime(n))
	}
	t := r.Total()
	fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %10s\n", "TOTAL",
		t.Flows, r.TotalPackets(), t.Writes, t.Forced, r.LockHoldTime(""))
	if lat := r.MeanLatency(); lat > 0 {
		r.mu.Lock()
		n := r.latCount
		r.mu.Unlock()
		fmt.Fprintf(&b, "mean commit latency: %s over %d transaction(s)\n", lat, n)
	}
	return b.String()
}

// LatencySummary condenses the recorded commit-latency distribution:
// Count, Mean and Max over every commit, the percentiles over the most
// recent latencyRing.
type LatencySummary struct {
	Count         int
	Mean          time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
}

// Snapshot is a point-in-time copy of everything the registry has
// accumulated: per-node counters, outcome tallies, and the latency
// distribution. Benchmarks and operational dashboards consume it
// instead of issuing many individual getter calls under churn.
type Snapshot struct {
	Nodes    map[string]Counters
	Outcomes map[string]int
	Latency  LatencySummary
}

// TotalRetries sums protocol retransmissions across all nodes.
func (s Snapshot) TotalRetries() int {
	n := 0
	for _, c := range s.Nodes {
		n += c.Retries
	}
	return n
}

// TotalInDoubt sums in-doubt entries across all nodes.
func (s Snapshot) TotalInDoubt() int {
	n := 0
	for _, c := range s.Nodes {
		n += c.InDoubt
	}
	return n
}

// Snapshot returns a consistent copy of the registry's state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Nodes:    make(map[string]Counters, len(r.perNode)),
		Outcomes: make(map[string]int, len(r.txOutcome)),
	}
	for n, c := range r.perNode {
		s.Nodes[n] = *c
	}
	for k, v := range r.txOutcome {
		s.Outcomes[k] = v
	}
	lats := r.recentLatenciesLocked()
	s.Latency.Count = r.latCount
	if r.latCount > 0 {
		s.Latency.Mean = r.latSum / time.Duration(r.latCount)
	}
	s.Latency.Max = r.latMax
	r.mu.Unlock()

	if len(lats) == 0 {
		return s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		idx := int(p / 100 * float64(len(lats)))
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return lats[idx]
	}
	s.Latency.P50 = pct(50)
	s.Latency.P95 = pct(95)
	s.Latency.P99 = pct(99)
	return s
}

// LatencyPercentile returns the p-th percentile (0 < p <= 100) of the
// most recent commit latencies (up to latencyRing), or zero when none
// were recorded.
func (r *Registry) LatencyPercentile(p float64) time.Duration {
	lats := r.Latencies()
	if len(lats) == 0 || p <= 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p >= 100 {
		return lats[len(lats)-1]
	}
	idx := int(p / 100 * float64(len(lats)))
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}
