package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
)

// TestServerOverloadPriorityShed drives one daemon's token bucket dry
// with read-write traffic and checks the shed ordering at a single
// instant: the next read-write request is refused with a retry-after
// hint while a read-only request is still admitted — and the
// conformance audit stays exact, because sheds happen before any
// protocol or staging work touches the cost ledger.
func TestServerOverloadPriorityShed(t *testing.T) {
	// A refill rate of ~0 freezes the bucket: admission is decided
	// purely by the tokens left, so the sequence is deterministic.
	s, err := New(Config{Name: "A", AuditInterval: -1, AdmitRate: 1e-9, AdmitBurst: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	put := func(tx, key string) (int, *api.CommitResponse, *api.Error) {
		return postV1(t, s, commitJSON(t, api.CommitRequest{
			Tx: tx, Ops: []api.Op{{Key: key, Op: api.OpPut, Value: "v"}}}))
	}
	// Normal read-write costs 1 token but needs the bucket above its
	// 10% floor (0.4): three puts drain 4 -> 1.
	for i, tx := range []string{"w1", "w2", "w3"} {
		if status, cr, _ := put(tx, "k"); status != http.StatusOK || cr.Outcome != "committed" {
			t.Fatalf("put %d: status %d resp %+v", i, status, cr)
		}
	}

	// One token left: read-write (needs 1.4) sheds...
	status, _, e := put("w4", "k")
	if status != http.StatusServiceUnavailable || e.Code != api.CodeOverloaded {
		t.Fatalf("read-write at 1 token: status %d code %q, want 503 overloaded", status, e.Code)
	}
	if e.RetryAfterMS <= 0 {
		t.Fatalf("shed without a retry hint: %+v", e)
	}
	// ...while read-only (needs exactly 1, floor 0) still admits.
	status, cr, _ := postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx: "r1", Ops: []api.Op{{Key: "k", Op: api.OpGet}}}))
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("read-only at 1 token: status %d resp %+v, want committed", status, cr)
	}
	if cr.Reads["k"] != "v" {
		t.Fatalf("read-only reads = %v", cr.Reads)
	}

	// Empty bucket: now even read-only sheds.
	status, _, e = postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx: "r2", Ops: []api.Op{{Key: "k", Op: api.OpGet}}}))
	if status != http.StatusServiceUnavailable || e.Code != api.CodeOverloaded {
		t.Fatalf("read-only on empty bucket: status %d code %q", status, e.Code)
	}

	st := s.AdmissionStats()
	if pc := st.PerClass[admission.ClassNormal]; pc.Admitted != 3 || pc.Shed != 1 {
		t.Fatalf("normal counts = %+v, want 3 admitted 1 shed", pc)
	}
	if pc := st.PerClass[admission.ClassReadOnly]; pc.Admitted != 1 || pc.Shed != 1 {
		t.Fatalf("read-only counts = %+v, want 1 admitted 1 shed", pc)
	}

	// The audit over everything that ran is exact: shedding consumed no
	// protocol spend and left no dangling ledger entries.
	rep := s.AuditNow()
	if !rep.OK() || rep.Checked == 0 || rep.Checked != rep.Exact {
		t.Fatalf("audit under shedding: %s", rep)
	}

	// The shed surface is observable: per-class counters in /metrics,
	// the live bucket in /varz.
	if _, body := httpGet(t, s.HTTPAddr(), "/metrics"); !strings.Contains(body,
		`twopc_admission_shed_total{class="normal",reason="rate"} 1`) {
		t.Fatalf("/metrics missing shed counter:\n%s", body)
	}
	if _, body := httpGet(t, s.HTTPAddr(), "/varz"); !strings.Contains(body, `"admit_burst": 4`) {
		t.Fatalf("/varz missing admission state:\n%s", body)
	}
}

// TestServerOverloadRetryAfterHeader checks a shed carries the
// machine-readable retry hint.
func TestServerOverloadRetryAfterHeader(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1, AdmitRate: 1e-9, AdmitBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Burst 1: the first commit takes the only token.
	if status, _, _ := postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx: "w1", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}})); status != http.StatusOK {
		t.Fatalf("first commit: %d", status)
	}
	resp, err := http.Post("http://"+s.HTTPAddr()+api.PathCommit, "application/json",
		strings.NewReader(commitJSON(t, api.CommitRequest{Tx: "w2", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("v1 shed: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestServerOverloadBackpressure checks the controller is alive and
// wired to the live signals: it ticks on its own, reports through
// /varz, and an idle healthy daemon keeps its configured ceiling.
func TestServerOverloadBackpressure(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1,
		AdmitRate: 1000, AdmitBurst: 64, Backpressure: true, BackpressureInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ctrl == nil {
		t.Fatal("backpressure enabled but no controller")
	}

	// Real traffic feeds the signal sampler (WAL forces happen).
	if status, _, _ := postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx: "w1", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}})); status != http.StatusOK {
		t.Fatalf("commit: %d", status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ctrl.Snapshot().Ticks < 3 {
		if time.Now().After(deadline) {
			t.Fatal("controller never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An unloaded daemon is healthy: the rate stays at the ceiling.
	if got := s.limiter.Rate(); got != 1000 {
		t.Fatalf("healthy idle rate = %g, want the 1000 ceiling", got)
	}
	if _, body := httpGet(t, s.HTTPAddr(), "/varz"); !strings.Contains(body, `"backpressure"`) {
		t.Fatalf("/varz missing backpressure block:\n%s", body)
	}
}
