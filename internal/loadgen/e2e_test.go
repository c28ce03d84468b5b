package loadgen_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/protocol"
	"repro/internal/server"
)

// TestLoadgenDaemonEndToEnd is the full serving-path exercise: three
// daemons on real TCP listeners, the open-loop generator driving the
// coordinator's HTTP /commit for every protocol variant, and the
// conformance audit — scraped over /metrics like an operator would —
// staying green on all three nodes.
func TestLoadgenDaemonEndToEnd(t *testing.T) {
	mk := func(cfg server.Config) *server.Server {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	coord := mk(server.Config{
		Name:          "C",
		Subs:          []string{"S1", "S2"},
		AuditInterval: 50 * time.Millisecond,
		MaxInflight:   128,
	})
	s1 := mk(server.Config{Name: "S1", AuditInterval: 50 * time.Millisecond})
	s2 := mk(server.Config{Name: "S2", AuditInterval: 50 * time.Millisecond})
	// Full mesh: Paxos Commit's acceptors ({C, S1, S2} here) exchange
	// acceptances directly, not just through the coordinator.
	coord.RegisterPeer("S1", s1.ProtoAddr())
	coord.RegisterPeer("S2", s2.ProtoAddr())
	s1.RegisterPeer("C", coord.ProtoAddr())
	s1.RegisterPeer("S2", s2.ProtoAddr())
	s2.RegisterPeer("C", coord.ProtoAddr())
	s2.RegisterPeer("S1", s1.ProtoAddr())

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
	for _, s := range []*server.Server{coord, s1, s2} {
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
}
