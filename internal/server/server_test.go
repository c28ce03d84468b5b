package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/live"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// newTrio starts a coordinator daemon and two subordinate daemons on
// real TCP listeners and wires them together.
func newTrio(t *testing.T, coordCfg Config) (coord, s1, s2 *Server) {
	t.Helper()
	mk := func(cfg Config) *Server {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	coordCfg.Name = "C"
	if coordCfg.Subs == nil {
		coordCfg.Subs = []string{"S1", "S2"}
	}
	coord = mk(coordCfg)
	s1 = mk(Config{Name: "S1", AuditInterval: -1})
	s2 = mk(Config{Name: "S2", AuditInterval: -1})
	// Full mesh: the classic variants only ever talk coordinator <->
	// subordinate, but Paxos Commit's ballot-0 accepts flow between
	// acceptor subordinates directly.
	coord.RegisterPeer("S1", s1.ProtoAddr())
	coord.RegisterPeer("S2", s2.ProtoAddr())
	s1.RegisterPeer("C", coord.ProtoAddr())
	s1.RegisterPeer("S2", s2.ProtoAddr())
	s2.RegisterPeer("C", coord.ProtoAddr())
	s2.RegisterPeer("S1", s1.ProtoAddr())
	return coord, s1, s2
}

func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestServerCommitAllVariantsOverTCP(t *testing.T) {
	coord, s1, s2 := newTrio(t, Config{AuditInterval: -1})
	ctx := context.Background()
	seq := 0
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos}
	for _, v := range variants {
		seq++
		tx := fmt.Sprintf("C:%d", seq)
		out, err := coord.Commit(ctx, tx, nil, v)
		if err != nil || out != live.Committed {
			t.Fatalf("%s commit = %v, %v", v, out, err)
		}
	}

	// Each daemon audits its own side of the protocol; every side must
	// conform exactly.
	for _, s := range []*Server{coord, s1, s2} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			rep := s.AuditNow()
			s.mu.Lock()
			checked := s.auditRep.Checked
			s.mu.Unlock()
			if !rep.OK() {
				t.Fatalf("%s: %s", s.cfg.Name, rep)
			}
			if checked >= len(variants) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d entries closed", s.cfg.Name, checked)
			}
			time.Sleep(5 * time.Millisecond)
		}
		rep, _ := s.AuditReport()
		if rep.Exact != rep.Checked || rep.Checked < len(variants) {
			t.Fatalf("%s: checked=%d exact=%d", s.cfg.Name, rep.Checked, rep.Exact)
		}
	}
}

// TestServerAuditExactWithDurableWAL reruns the all-variants commit
// sweep with every daemon logging to a real preallocated segment
// store through the adaptive group-commit pipeline: batching forces
// into shared fdatasyncs must not change what the audit counts — a
// forced write is a forced write whether or not it shared a device
// flush — so the runtime cost audit must stay exact under all five
// variants.
func TestServerAuditExactWithDurableWAL(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, subs []string) *Server {
		store, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(true))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Name:          name,
			Subs:          subs,
			AuditInterval: -1,
			Log:           wal.New(store),
			LiveOptions:   []live.Option{live.WithAdaptiveCommit(2 * time.Millisecond)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(); store.Close() })
		return s
	}
	coord := mk("C", []string{"S1", "S2"})
	s1 := mk("S1", nil)
	s2 := mk("S2", nil)
	coord.RegisterPeer("S1", s1.ProtoAddr())
	coord.RegisterPeer("S2", s2.ProtoAddr())
	s1.RegisterPeer("C", coord.ProtoAddr())
	s1.RegisterPeer("S2", s2.ProtoAddr())
	s2.RegisterPeer("C", coord.ProtoAddr())
	s2.RegisterPeer("S1", s1.ProtoAddr())

	ctx := context.Background()
	seq := 0
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos}
	for _, v := range variants {
		seq++
		tx := fmt.Sprintf("C:%d", seq)
		out, err := coord.Commit(ctx, tx, nil, v)
		if err != nil || out != live.Committed {
			t.Fatalf("%s commit = %v, %v", v, out, err)
		}
	}

	for _, s := range []*Server{coord, s1, s2} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			rep := s.AuditNow()
			s.mu.Lock()
			checked := s.auditRep.Checked
			s.mu.Unlock()
			if !rep.OK() {
				t.Fatalf("%s: %s", s.cfg.Name, rep)
			}
			if checked >= 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d entries closed", s.cfg.Name, checked)
			}
			time.Sleep(5 * time.Millisecond)
		}
		rep, _ := s.AuditReport()
		if rep.Exact != rep.Checked || rep.Checked < 5 {
			t.Fatalf("%s: checked=%d exact=%d", s.cfg.Name, rep.Checked, rep.Exact)
		}
		// The durable path really was durable: the segment store saw
		// physical flushes and the log attributed every force.
		if ws := s.cfg.Log.Stats(); ws.Forces == 0 || ws.Syncs == 0 {
			t.Fatalf("%s: wal stats %+v, want forces and syncs > 0", s.cfg.Name, ws)
		}
	}
}

func TestServerHTTPPlane(t *testing.T) {
	coord, _, _ := newTrio(t, Config{AuditInterval: -1, Variant: protocol.VariantPA})
	if status, cr, _ := postV1(t, coord, `{"tx":"C:1","variant":"pc"}`); status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("POST /v1/commit = %d %+v", status, cr)
	}

	if code, body := httpGet(t, coord.HTTPAddr(), "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := httpGet(t, coord.HTTPAddr(), "/varz"); code != 200 || !strings.Contains(body, `"name": "C"`) {
		t.Fatalf("/varz = %d %q", code, body)
	}
	code, metricsBody := httpGet(t, coord.HTTPAddr(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"twopc_messages_sent_total{node=\"C\"}",
		"twopc_outcomes_total{outcome=\"committed\"} 1",
		"twopc_cost_total{variant=\"PC\",role=\"coordinator\",outcome=\"committed\",kind=\"flows\"} 4",
		"twopc_cost_total{variant=\"PC\",role=\"coordinator\",outcome=\"committed\",kind=\"forced_writes\"} 2",
		"twopc_commit_latency_seconds_count 1",
		// The finished commit left only its decided-table entry, aging
		// (a PC commit owes no acknowledgments, so nothing pins it).
		"twopc_state_entries 0",
		"twopc_decided_entries 1",
		"twopc_decided_pinned_entries 0",
		"twopc_lock_table_keys 0",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q\n%s", want, metricsBody)
		}
	}
	if code, body := httpGet(t, coord.HTTPAddr(), "/auditz"); code != 200 || !strings.Contains(body, "audited") {
		t.Fatalf("/auditz = %d %q", code, body)
	}
	if code, body := httpGet(t, coord.HTTPAddr(), "/tracez"); code != 200 || !strings.Contains(body, "events") {
		t.Fatalf("/tracez = %d %q", code, body)
	}
	if code, _ := httpGet(t, coord.HTTPAddr(), "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

func TestServerAdmissionShedsLoad(t *testing.T) {
	coord, _, _ := newTrio(t, Config{AuditInterval: -1, MaxInflight: 1})
	// Occupy the only admission slot, then watch the next request shed.
	coord.sem <- struct{}{}
	_, err := coord.Commit(context.Background(), "C:9", nil, protocol.VariantPA)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "inflight" {
		t.Fatalf("err = %v, want inflight ShedError", err)
	}
	if status, _, e := postV1(t, coord, `{}`); status != http.StatusServiceUnavailable || e.Code != api.CodeOverloaded {
		t.Fatalf("overloaded /v1/commit = %d %+v, want 503 %s", status, e, api.CodeOverloaded)
	}
	<-coord.sem
	if out, err := coord.Commit(context.Background(), "C:10", nil, protocol.VariantPA); err != nil || out != live.Committed {
		t.Fatalf("after release: %v, %v", out, err)
	}
}

func TestServerDrain(t *testing.T) {
	coord, _, _ := newTrio(t, Config{AuditInterval: -1})
	if out, err := coord.Commit(context.Background(), "C:1", nil, protocol.VariantPA); err != nil || out != live.Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Commit(context.Background(), "C:2", nil, protocol.VariantPA); err != ErrDraining {
		t.Fatalf("post-drain commit err = %v, want ErrDraining", err)
	}
	if code, body := httpGet(t, coord.HTTPAddr(), "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz during drain = %d %q", code, body)
	}
	// The drain consumed the closed ledger via its final audit.
	rep, txs := coord.AuditReport()
	if !rep.OK() || txs != 1 {
		t.Fatalf("final audit: %s (txs=%d)", rep, txs)
	}
}

func TestServerDrainWaitsForInflight(t *testing.T) {
	coord, _, _ := newTrio(t, Config{AuditInterval: -1})
	release := make(chan struct{})
	done := make(chan error, 1)
	// Occupy one admission slot before the drain starts, mimicking a
	// commit mid-flight.
	coord.mu.Lock()
	coord.sem <- struct{}{}
	coord.inflight++
	coord.mu.Unlock()
	go func() {
		<-release
		coord.mu.Lock()
		<-coord.sem
		coord.inflight--
		if coord.draining && coord.inflight == 0 {
			close(coord.idle)
		}
		coord.mu.Unlock()
	}()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- coord.Drain(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("drain returned before inflight finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain never finished")
	}
}

func TestServerAuditLatchesHealthRed(t *testing.T) {
	log := wal.New(wal.NewMemStore())
	coord, _, _ := newTrio(t, Config{AuditInterval: -1, Log: log})
	if out, err := coord.Commit(context.Background(), "C:1", nil, protocol.VariantPA); err != nil || out != live.Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	// A mis-costed path: force a record the model has no budget for.
	if _, err := log.Force(wal.Record{Tx: "C:1", Node: "C", Kind: "Spurious"}); err != nil {
		t.Fatal(err)
	}
	rep := coord.AuditNow()
	if rep.OK() {
		t.Fatal("spurious forced write not flagged")
	}
	if coord.Healthy() {
		t.Fatal("health stayed green through an audit violation")
	}
	if code, body := httpGet(t, coord.HTTPAddr(), "/healthz"); code != http.StatusInternalServerError || !strings.Contains(body, "violation") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if _, body := httpGet(t, coord.HTTPAddr(), "/metrics"); !strings.Contains(body, "twopc_audit_violations_total 1") {
		t.Fatal("/metrics missing the violation counter")
	}
}

func TestServerTraceRing(t *testing.T) {
	coord, _, _ := newTrio(t, Config{AuditInterval: -1, TraceRing: 8})
	for i := 0; i < 5; i++ {
		tx := fmt.Sprintf("C:%d", i+1)
		if out, err := coord.Commit(context.Background(), tx, nil, protocol.VariantPA); err != nil || out != live.Committed {
			t.Fatalf("commit = %v, %v", out, err)
		}
	}
	events := coord.trc.Events()
	if len(events) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("ring out of order at %d: %+v", i, events)
		}
	}
}
