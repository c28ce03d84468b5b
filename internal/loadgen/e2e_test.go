package loadgen_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/loadgen"
	"repro/internal/protocol"
	"repro/internal/router"
)

// onEveryShard is a Config.Ops generator for the hash-sharded fleet
// names: arrival seq takes one key on every shard, the op verb(seq)
// names, from a pool of perShard keys per shard.
func onEveryShard(t *testing.T, names []string, perShard int, verb func(seq int) api.OpKind) func(seq int) []api.Op {
	t.Helper()
	smap, err := router.Parse("hash:" + strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string][]string) // keys[n]: keys shard n owns
	for k := 0; len(keys) < len(names) || slices.ContainsFunc(names, func(n string) bool { return len(keys[n]) < perShard }); k++ {
		key := fmt.Sprintf("k%d", k)
		if o := smap.Owner(key); len(keys[o]) < perShard {
			keys[o] = append(keys[o], key)
		}
	}
	return func(seq int) []api.Op {
		out := make([]api.Op, len(names))
		for i, n := range names {
			out[i] = api.Op{Key: keys[n][seq%perShard], Op: verb(seq)}
			if out[i].Writes() {
				out[i].Value = "v"
			}
		}
		return out
	}
}

// TestLoadgenDaemonEndToEnd is the full serving-path exercise: three
// sharded daemons on real TCP listeners, the open-loop generator
// driving the coordinator's /v1/commit for every protocol variant, and
// the conformance audit — scraped over /metrics like an operator
// would — staying green on all three nodes. Arrivals alternate two
// shapes: a put on every shard, so every node votes yes, and a get on
// every shard, so every node votes read-only.
func TestLoadgenDaemonEndToEnd(t *testing.T) {
	fleet, names := newFleet(t, 3, nil)
	coord := fleet[0]
	// Every key is used at most once per variant's run, so no arrival
	// waits for another's locks.
	ops := onEveryShard(t, names, 256, func(seq int) api.OpKind {
		if seq%2 == 0 {
			return api.OpPut
		}
		return api.OpGet
	})

	totalCommitted := 0
	for _, variant := range []string{"basic", "pa", "pn", "pc", "paxos", "1pc"} {
		res := loadgen.Run(context.Background(), &loadgen.HTTPCommitter{
			BaseURL: "http://" + coord.HTTPAddr(),
			Variant: variant,
		}, loadgen.Config{
			Rate:     400,
			Duration: 250 * time.Millisecond,
			Workers:  32,
			TxPrefix: "C:" + variant,
			Ops:      ops,
		})
		if res.Errors > 0 {
			t.Fatalf("%s: %d errors (result %+v)", variant, res.Errors, res)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed (result %+v)", variant, res)
		}
		if res.Aborted != 0 {
			t.Fatalf("%s: unexpected aborts (result %+v)", variant, res)
		}
		if res.CommitsPerSec() <= 0 || res.Quantile(0.99) <= 0 {
			t.Fatalf("%s: degenerate throughput/latency (result %+v)", variant, res)
		}
		totalCommitted += res.Committed
	}

	// Every daemon must close its ledger entries and conform exactly;
	// the subordinates lag the coordinator's response, so poll.
	for _, s := range fleet {
		deadline := time.Now().Add(10 * time.Second)
		for {
			rep := s.AuditNow()
			if !rep.OK() {
				t.Fatalf("audit violation: %s", rep)
			}
			rep, txs := s.AuditReport()
			if txs >= totalCommitted && rep.Exact == rep.Checked {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("audited %d/%d txs (report %s)", txs, totalCommitted, rep)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !s.Healthy() {
			t.Fatal("daemon unhealthy after a clean run")
		}
	}

	// Operator view: the scrape must show zero violations and per-variant
	// cost accounting for all six variants on the coordinator.
	resp, err := http.Get("http://" + coord.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"twopc_audit_violations_total 0",
		fmt.Sprintf("twopc_outcomes_total{outcome=\"committed\"} %d", totalCommitted),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC} {
		want := fmt.Sprintf("twopc_cost_total{variant=%q,role=\"coordinator\",outcome=\"committed\",kind=\"flows\"}", v)
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing coordinator cost series for %s", v)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", metrics)
	}

	// The read-only arrivals left at their votes: each subordinate's
	// scrape has read-only entries under every variant but Paxos
	// Commit, which folds read-only votes to yes.
	for _, s := range fleet[1:] {
		resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC} {
			series := fmt.Sprintf("twopc_cost_total{variant=%q,role=\"readonly\",outcome=\"unknown\",kind=\"flows\"}", v)
			if got := strings.Contains(string(body), series); got != (v != protocol.VariantPaxos) {
				t.Errorf("%s /metrics has read-only series for %s: %v", s.HTTPAddr(), v, got)
			}
		}
	}
}
