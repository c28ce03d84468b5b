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

	"repro/internal/admission"
	"repro/internal/analytic"
	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/wal"
)

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

// trioSpec is the shard map of the write-shape fleets: daemon C
// coordinates, and a put on each shard makes every node vote yes.
const trioSpec = "hash:C,S1,S2"

// newShardedTrio starts daemons C, S1 and S2 on trioSpec, each from
// cfg(name) with its name and shard map filled in, and wires them on
// both planes. keys[n] is a key daemon n owns.
func newShardedTrio(t testing.TB, cfg func(name string) Config) (fleet []*Server, keys map[string]string) {
	t.Helper()
	names := []string{"C", "S1", "S2"}
	for _, n := range names {
		c := cfg(n)
		c.Name, c.ShardMap = n, trioSpec
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fleet = append(fleet, s)
	}
	for i, s := range fleet {
		for j, p := range fleet {
			if i != j {
				s.RegisterPeer(names[j], p.ProtoAddr())
				s.RegisterPeerHTTP(names[j], "http://"+p.HTTPAddr())
			}
		}
	}
	smap, err := router.Parse(trioSpec)
	if err != nil {
		t.Fatal(err)
	}
	keys = make(map[string]string)
	for k := 0; len(keys) < len(names); k++ {
		key := fmt.Sprintf("k%d", k)
		if o := smap.Owner(key); keys[o] == "" {
			keys[o] = key
		}
	}
	return fleet, keys
}

// putOnEveryShard is the write shape: one put on each of the trio's
// shards, so the coordinator and both subordinates vote yes.
func putOnEveryShard(keys map[string]string) []api.Op {
	return []api.Op{
		{Key: keys["C"], Op: api.OpPut, Value: "v"},
		{Key: keys["S1"], Op: api.OpPut, Value: "v"},
		{Key: keys["S2"], Op: api.OpPut, Value: "v"},
	}
}

// getOnEveryShard is the read-only shape: one get on each of the
// trio's shards, so every node votes read-only.
func getOnEveryShard(keys map[string]string) []api.Op {
	return []api.Op{
		{Key: keys["C"], Op: api.OpGet},
		{Key: keys["S1"], Op: api.OpGet},
		{Key: keys["S2"], Op: api.OpGet},
	}
}

// auditUntil audits s until it has audited at least txs transactions,
// failing on any violation, and returns the final report: every entry
// of it must match its closed form exactly.
func auditUntil(t *testing.T, s *Server, txs int) audit.Report {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep := s.AuditNow(); !rep.OK() {
			t.Fatalf("%s: %s", s.cfg.Name, rep)
		}
		rep, audited := s.AuditReport()
		if audited >= txs {
			if rep.Exact != rep.Checked || rep.Checked < txs {
				t.Fatalf("%s: checked=%d exact=%d over %d transactions", s.cfg.Name, rep.Checked, rep.Exact, audited)
			}
			if n := s.reg.CostLedgerSize(); n != 0 {
				t.Fatalf("%s: ledger still holds %d entries", s.cfg.Name, n)
			}
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: only %d of %d transactions closed (ledger %+v)", s.cfg.Name, audited, txs, s.reg.CostSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// aggregate is s's audited spend and node-entry count for one
// (variant, role, outcome) bucket.
func aggregate(s *Server, v protocol.Variant, role metrics.Role, outcome string) (metrics.CostCounters, int) {
	k := metrics.AggregateCostKey{Variant: v.String(), Role: role, Outcome: outcome}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.costAgg[k], s.costNodes[k]
}

// commitBothShapes commits, under each of the six variants, the write
// shape (a put on every shard: all three nodes vote yes) and the
// read-only shape (a get on every shard: all three vote read-only),
// then holds every daemon's audit exact over all of them and checks
// what they spent. Under PA and Basic 2PC a subordinate votes in its
// stage reply when its slice writes or is staged last, so the
// coordinator sends no Prepare to both subordinates of a write and to
// S2 of a read. Each subordinate's entry of a read is a read-only
// vote, and the coordinator of one logs nothing under PA, Basic 2PC
// and 1PC and only its pre-prepare record and End under PN and PC.
// Paxos Commit folds read-only votes to yes, so both of its commits
// take the write form.
func commitBothShapes(t *testing.T, fleet []*Server, keys map[string]string) {
	t.Helper()
	coord := fleet[0]
	ctx := context.Background()
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC}
	for i, v := range variants {
		for _, shape := range []struct {
			tx  string
			ops []api.Op
		}{{fmt.Sprintf("C:w%d", i), putOnEveryShard(keys)}, {fmt.Sprintf("C:r%d", i), getOnEveryShard(keys)}} {
			resp, herr := coord.runV1(ctx, api.CommitRequest{Tx: shape.tx, Variant: v.String(), Ops: shape.ops})
			if herr != nil || resp.Outcome != "committed" {
				t.Fatalf("%s commit %s = %+v, %v", v, shape.tx, resp, herr)
			}
		}
	}

	// Each daemon audits its own side of both commits of every
	// variant; every side must conform exactly and its ledger empty.
	for _, s := range fleet {
		auditUntil(t, s, 2*len(variants))
	}
	for _, v := range variants {
		writeVolunteers, readVolunteers := 0, 0
		if v.Unsolicited() {
			writeVolunteers, readVolunteers = 2, 1
		}
		write, _ := analytic.CoordCommitCost(v.String(), 2, 2, writeVolunteers, false)
		ro, _ := analytic.CoordCommitCost(v.String(), 2, 0, readVolunteers, true)
		if v == protocol.VariantPaxos {
			ro = write
		}
		c, n := aggregate(coord, v, metrics.RoleCoordinator, "committed")
		if got, want := (analytic.Triplet{Flows: c.Flows, Writes: c.Writes(), Forced: c.Forced}), write.Add(ro); n != 2 || got != want {
			t.Errorf("%s coordinator: %d entries spent (%v), want 2 spending (%v)", v, n, got, want)
		}
		wantRO := 1
		if v == protocol.VariantPaxos {
			wantRO = 0
		}
		for _, sub := range fleet[1:] {
			if _, n := aggregate(sub, v, metrics.RoleReadOnly, "unknown"); n != wantRO {
				t.Errorf("%s %s: %d read-only entries, want %d", v, sub.cfg.Name, n, wantRO)
			}
		}
	}
}

func TestServerCommitAllVariantsOverTCP(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	commitBothShapes(t, fleet, keys)
}

// TestServerAuditExactWithDurableWAL reruns the all-variants commit
// sweep with every daemon logging to a real preallocated segment
// store through the adaptive group-commit pipeline: batching forces
// into shared fdatasyncs must not change what the audit counts — a
// forced write is a forced write whether or not it shared a device
// flush — so the runtime cost audit must stay exact under all six
// variants, for the write shape and the read-only one alike.
func TestServerAuditExactWithDurableWAL(t *testing.T) {
	dir := t.TempDir()
	fleet, keys := newShardedTrio(t, func(name string) Config {
		store, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(true))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return Config{
			AuditInterval: -1,
			Log:           wal.New(store),
			LiveOptions:   []live.Option{live.WithAdaptiveCommit(2 * time.Millisecond)},
		}
	})
	commitBothShapes(t, fleet, keys)
	for _, s := range fleet {
		// The durable path really was durable: the segment store saw
		// physical flushes and the log attributed every force.
		if ws := s.cfg.Log.Stats(); ws.Forces == 0 || ws.Syncs == 0 {
			t.Fatalf("%s: wal stats %+v, want forces and syncs > 0", s.cfg.Name, ws)
		}
	}
}

// unreadableStore is stable storage whose recovery scan fails, as a
// segment store's can when a segment cannot be re-read.
type unreadableStore struct{ wal.Store }

var errUnreadable = errors.New("segment unreadable")

func (unreadableStore) Records() ([]wal.Record, error) { return nil, errUnreadable }

// TestServerRefusesUnreadableLog: a daemon that cannot read its log
// back does not start, rather than answer inquiries by presumption
// against decisions on disk.
func TestServerRefusesUnreadableLog(t *testing.T) {
	s, err := New(Config{Name: "C", AuditInterval: -1, Log: wal.New(unreadableStore{wal.NewMemStore()})})
	if !errors.Is(err, errUnreadable) || s != nil {
		if s != nil {
			s.Close()
		}
		t.Fatalf("New = %v, %v; want the log's error and no server", s, err)
	}
}

func TestServerHTTPPlane(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1, Variant: protocol.VariantPA} })
	coord := fleet[0]
	if status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: "C:1", Variant: "pc", Ops: putOnEveryShard(keys)})); status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("POST /v1/commit = %d %+v", status, cr)
	}
	auditUntil(t, coord, 1)

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

	// A get on every shard is fully read-only: its cost is the
	// coordinator's forced Collecting record and End plus one vote
	// from each subordinate, and the scrape adds just that.
	status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: "C:2", Variant: "pc", Ops: getOnEveryShard(keys)}))
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("read-only POST /v1/commit = %d %+v", status, cr)
	}
	if want := (api.CostSummary{Flows: 4, LogWrites: 2, ForcedWrites: 1}); cr.Cost == nil || *cr.Cost != want {
		t.Fatalf("read-only cost %+v, want %+v", cr.Cost, want)
	}
	auditUntil(t, coord, 2)
	_, metricsBody = httpGet(t, coord.HTTPAddr(), "/metrics")
	for _, want := range []string{
		"twopc_outcomes_total{outcome=\"committed\"} 2",
		"twopc_cost_total{variant=\"PC\",role=\"coordinator\",outcome=\"committed\",kind=\"flows\"} 6",
		"twopc_cost_total{variant=\"PC\",role=\"coordinator\",outcome=\"committed\",kind=\"forced_writes\"} 3",
		"twopc_cost_total{variant=\"PC\",role=\"coordinator\",outcome=\"committed\",kind=\"nonforced_writes\"} 2",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics after the read-only commit missing %q\n%s", want, metricsBody)
		}
	}
	for _, sub := range fleet[1:] {
		auditUntil(t, sub, 2)
		if _, body := httpGet(t, sub.HTTPAddr(), "/metrics"); !strings.Contains(body,
			"twopc_cost_total{variant=\"PC\",role=\"readonly\",outcome=\"unknown\",kind=\"flows\"} 1") {
			t.Errorf("%s /metrics missing its read-only vote\n%s", sub.cfg.Name, body)
		}
	}
}

func TestServerAdmissionShedsLoad(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1, MaxInflight: 1} })
	coord := fleet[0]
	req := api.CommitRequest{Tx: "C:9", Variant: "pa", Ops: putOnEveryShard(keys)}
	// Occupy the only admission slot, then watch the next request shed.
	coord.mu.Lock()
	coord.inflight++
	coord.mu.Unlock()
	_, herr := coord.runV1(context.Background(), req)
	if herr == nil || herr.status != http.StatusServiceUnavailable || herr.e.Code != api.CodeOverloaded {
		t.Fatalf("err = %+v, want 503 %s", herr, api.CodeOverloaded)
	}
	if herr.retryAfter != shedRetryInflight || coord.shedInflight[admission.ClassNormal].Load() != 1 {
		t.Fatalf("err = %+v, want one inflight shed", herr)
	}
	if status, _, e := postV1(t, coord, commitJSON(t, req)); status != http.StatusServiceUnavailable || e.Code != api.CodeOverloaded {
		t.Fatalf("overloaded /v1/commit = %d %+v, want 503 %s", status, e, api.CodeOverloaded)
	}
	coord.release()
	req.Tx = "C:10"
	if resp, herr := coord.runV1(context.Background(), req); herr != nil || resp.Outcome != "committed" {
		t.Fatalf("after release: %+v, %v", resp, herr)
	}
}

func TestServerDrain(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	coord := fleet[0]
	req := api.CommitRequest{Tx: "C:1", Variant: "pa", Ops: getOnEveryShard(keys)}
	if resp, herr := coord.runV1(context.Background(), req); herr != nil || resp.Outcome != "committed" {
		t.Fatalf("commit = %+v, %v", resp, herr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	req.Tx = "C:2"
	if _, herr := coord.runV1(context.Background(), req); herr == nil || herr.e.Code != api.CodeDraining {
		t.Fatalf("post-drain commit err = %+v, want %s", herr, api.CodeDraining)
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
	fleet, _ := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	coord := fleet[0]
	release := make(chan struct{})
	done := make(chan error, 1)
	// Occupy one admission slot before the drain starts, mimicking a
	// commit mid-flight.
	coord.mu.Lock()
	coord.inflight++
	coord.mu.Unlock()
	go func() {
		<-release
		coord.release()
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
	fleet, keys := newShardedTrio(t, func(name string) Config {
		if name == "C" {
			return Config{AuditInterval: -1, Log: log}
		}
		return Config{AuditInterval: -1}
	})
	coord := fleet[0]
	if resp, herr := coord.runV1(context.Background(), api.CommitRequest{Tx: "C:1", Variant: "pa", Ops: getOnEveryShard(keys)}); herr != nil || resp.Outcome != "committed" {
		t.Fatalf("commit = %+v, %v", resp, herr)
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
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1, TraceRing: 8} })
	coord := fleet[0]
	for i := 0; i < 5; i++ {
		req := api.CommitRequest{Tx: fmt.Sprintf("C:%d", i+1), Variant: "pa", Ops: getOnEveryShard(keys)}
		if resp, herr := coord.runV1(context.Background(), req); herr != nil || resp.Outcome != "committed" {
			t.Fatalf("commit = %+v, %v", resp, herr)
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
