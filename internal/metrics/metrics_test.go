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

func TestPacketTriplet(t *testing.T) {
	r := New()
	r.MessageSent("C", false)
	r.MessageSent("S", true) // piggybacked
	pt := r.PacketTriplet()
	if pt.Flows != 1 {
		t.Fatalf("PacketTriplet.Flows = %d, want 1", pt.Flows)
	}
	if r.Total().Flows != 2 {
		t.Fatalf("Total.Flows = %d, want 2", r.Total().Flows)
	}
}

func TestTripletAdd(t *testing.T) {
	a := Triplet{Flows: 1, Writes: 2, Forced: 3}
	b := Triplet{Flows: 10, Writes: 20, Forced: 30}
	if got := a.Add(b); got != (Triplet{Flows: 11, Writes: 22, Forced: 33}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestLockHold(t *testing.T) {
	r := New()
	r.LockHold("A", 5*time.Millisecond)
	r.LockHold("A", 3*time.Millisecond)
	r.LockHold("B", 2*time.Millisecond)
	r.LockHold("B", -time.Millisecond) // clamped to zero
	if got := r.LockHoldTime("A"); got != 8*time.Millisecond {
		t.Fatalf("A lock hold = %v", got)
	}
	if got := r.LockHoldTime(""); got != 10*time.Millisecond {
		t.Fatalf("total lock hold = %v", got)
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
	if n := len(r.Latencies()); n != 2 {
		t.Fatalf("latency count = %d", n)
	}
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
				r.LockHold("N", time.Microsecond)
				r.Latency(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	c := r.Node("N")
	if c.MessagesSent != 1600 || c.LogWrites != 1600 || c.ForcedWrites != 800 {
		t.Fatalf("concurrent counters wrong: %+v", c)
	}
	if len(r.Latencies()) != 1600 {
		t.Fatalf("latencies = %d", len(r.Latencies()))
	}
}

func TestLatencyPercentile(t *testing.T) {
	r := New()
	if r.LatencyPercentile(50) != 0 {
		t.Fatal("empty registry percentile should be 0")
	}
	for i := 1; i <= 100; i++ {
		r.Latency(time.Duration(i) * time.Millisecond)
	}
	if got := r.LatencyPercentile(50); got != 51*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.LatencyPercentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.LatencyPercentile(0); got != 0 {
		t.Fatalf("p0 = %v", got)
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
	lats := r.Latencies()
	if len(lats) != latencyRing {
		t.Fatalf("kept %d samples, want %d", len(lats), latencyRing)
	}
	if lats[0] != 1001*time.Microsecond || lats[len(lats)-1] != n*time.Microsecond {
		t.Fatalf("ring holds %v..%v, want the most recent, oldest first", lats[0], lats[len(lats)-1])
	}
	if got := r.LatencyPercentile(0.01); got != 1001*time.Microsecond {
		t.Fatalf("lowest percentile = %v, want the oldest kept sample", got)
	}
	s := r.Snapshot().Latency
	if s.Count != n || s.Max != n*time.Microsecond {
		t.Fatalf("summary count %d max %v, want %d and %v", s.Count, s.Max, n, time.Duration(n)*time.Microsecond)
	}
	if want := time.Duration(n+1) * time.Microsecond / 2; s.Mean != want || r.MeanLatency() != want {
		t.Fatalf("mean = %v / %v, want %v over every sample", s.Mean, r.MeanLatency(), want)
	}
}
