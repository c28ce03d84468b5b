package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMessageCounting(t *testing.T) {
	r := New()
	r.MessageSent("C", false)
	r.MessageSent("C", false)
	r.MessageSent("C", true) // piggybacked: a flow but not a packet
	r.MessageReceived("S")
	c := r.Node("C")
	if c.MessagesSent != 3 {
		t.Fatalf("MessagesSent = %d, want 3", c.MessagesSent)
	}
	if c.PacketsSent != 2 {
		t.Fatalf("PacketsSent = %d, want 2", c.PacketsSent)
	}
	if s := r.Node("S"); s.MessagesReceived != 1 {
		t.Fatalf("S.MessagesReceived = %d, want 1", s.MessagesReceived)
	}
}

func TestLogWriteCounting(t *testing.T) {
	r := New()
	r.LogWrite("S", true)
	r.LogWrite("S", true)
	r.LogWrite("S", false)
	c := r.Node("S")
	if c.LogWrites != 3 || c.ForcedWrites != 2 {
		t.Fatalf("logs = (%d,%d), want (3,2)", c.LogWrites, c.ForcedWrites)
	}
}

func TestTotalTriplet(t *testing.T) {
	r := New()
	r.MessageSent("C", false)
	r.MessageSent("C", false)
	r.MessageSent("S", false)
	r.MessageSent("S", false)
	r.LogWrite("C", true)
	r.LogWrite("C", false)
	r.LogWrite("S", true)
	r.LogWrite("S", true)
	r.LogWrite("S", false)
	got := r.Total()
	want := Triplet{Flows: 4, Writes: 5, Forced: 3}
	if got != want {
		t.Fatalf("Total = %+v, want %+v", got, want)
	}
	if got.String() != "4, 5, 3" {
		t.Fatalf("Triplet.String = %q", got.String())
	}
}

func TestTripletAdd(t *testing.T) {
	a := Triplet{Flows: 1, Writes: 2, Forced: 3}
	b := Triplet{Flows: 10, Writes: 20, Forced: 30}
	if got := a.Add(b); got != (Triplet{Flows: 11, Writes: 22, Forced: 33}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestLatency(t *testing.T) {
	r := New()
	if r.MeanLatency() != 0 {
		t.Fatal("mean latency of empty registry should be 0")
	}
	r.Latency(10 * time.Millisecond)
	r.Latency(20 * time.Millisecond)
	if got := r.MeanLatency(); got != 15*time.Millisecond {
		t.Fatalf("mean latency = %v, want 15ms", got)
	}
	if n := len(recentLatencies(r)); n != 2 {
		t.Fatalf("latency count = %d", n)
	}
}

// recentLatencies copies r's latency ring, oldest sample first.
func recentLatencies(r *Registry) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recentLatenciesLocked()
}

func TestOutcomesAndHeuristics(t *testing.T) {
	r := New()
	r.Outcome("committed")
	r.Outcome("committed")
	r.Outcome("aborted")
	o := r.Outcomes()
	if o["committed"] != 2 || o["aborted"] != 1 {
		t.Fatalf("outcomes = %v", o)
	}
	r.Heuristic("S", true)
	r.Heuristic("S", false)
	r.Damage("S")
	c := r.Node("S")
	if c.HeuristicCommits != 1 || c.HeuristicAborts != 1 || c.HeuristicDamage != 1 {
		t.Fatalf("heuristics = %+v", c)
	}
	if r.HeuristicDamageTotal() != 1 {
		t.Fatalf("damage total = %d", r.HeuristicDamageTotal())
	}
}

func TestNodesSorted(t *testing.T) {
	r := New()
	r.MessageSent("Zeta", false)
	r.MessageSent("Alpha", false)
	r.LogWrite("Mid", true)
	got := r.Nodes()
	want := []string{"Alpha", "Mid", "Zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", got, want)
		}
	}
}

func TestSummaryMentionsTotals(t *testing.T) {
	r := New()
	r.MessageSent("C", false)
	r.LogWrite("C", true)
	r.Latency(time.Millisecond)
	s := r.Summary()
	for _, frag := range []string{"TOTAL", "C", "mean commit latency"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.MessageSent("N", false)
				r.LogWrite("N", j%2 == 0)
				r.Latency(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	c := r.Node("N")
	if c.MessagesSent != 1600 || c.LogWrites != 1600 || c.ForcedWrites != 800 {
		t.Fatalf("concurrent counters wrong: %+v", c)
	}
	if n := len(recentLatencies(r)); n != 1600 {
		t.Fatalf("latencies = %d", n)
	}
}

// TestLatencyRingKeepsRecent: past latencyRing samples the registry
// keeps only the most recent ones for percentiles, while count, mean
// and maximum still cover every sample.
func TestLatencyRingKeepsRecent(t *testing.T) {
	r := New()
	const n = latencyRing + 1000
	for i := 1; i <= n; i++ {
		r.Latency(time.Duration(i) * time.Microsecond)
	}
	lats := recentLatencies(r)
	if len(lats) != latencyRing {
		t.Fatalf("kept %d samples, want %d", len(lats), latencyRing)
	}
	if lats[0] != 1001*time.Microsecond || lats[len(lats)-1] != n*time.Microsecond {
		t.Fatalf("ring holds %v..%v, want the most recent, oldest first", lats[0], lats[len(lats)-1])
	}
	s := r.Snapshot().Latency
	if s.Count != n || s.Max != n*time.Microsecond {
		t.Fatalf("summary count %d max %v, want %d and %v", s.Count, s.Max, n, time.Duration(n)*time.Microsecond)
	}
	if want := (1000 + latencyRing/2 + 1) * time.Microsecond; s.P50 != want {
		t.Fatalf("p50 = %v, want %v, the median of the kept samples", s.P50, want)
	}
	if want := time.Duration(n+1) * time.Microsecond / 2; s.Mean != want || r.MeanLatency() != want {
		t.Fatalf("mean = %v / %v, want %v over every sample", s.Mean, r.MeanLatency(), want)
	}
}
