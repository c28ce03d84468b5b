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

	"repro/internal/analytic"
	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/router"
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

// commitBothShapes commits, under each of the five variants, the
// write shape (a put on every shard: all three nodes vote yes, under
// PA and Basic 2PC the subordinates in their stage replies) and a
// protocol-only transaction (no ops: all three vote read-only), then
// holds every daemon's audit exact over all of them and checks what
// the read-only commits spent: each subordinate's entry is a read-only
// vote, and the coordinator logs nothing under PA and Basic 2PC and
// only its pre-prepare record and End under PN and PC. Paxos Commit
// folds read-only votes to yes, so both of its commits take the write
// form.
func commitBothShapes(t *testing.T, fleet []*Server, keys map[string]string) {
	t.Helper()
	coord := fleet[0]
	ctx := context.Background()
	variants := []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC, protocol.VariantPaxos}
	for i, v := range variants {
		resp, herr := coord.runV1(ctx, api.CommitRequest{Tx: fmt.Sprintf("C:w%d", i), Variant: v.String(), Ops: putOnEveryShard(keys)})
		if herr != nil || resp.Outcome != "committed" {
			t.Fatalf("%s write commit = %+v, %v", v, resp, herr)
		}
		if out, err := coord.Commit(ctx, fmt.Sprintf("C:r%d", i), []string{"S1", "S2"}, v); err != nil || out != live.Committed {
			t.Fatalf("%s read-only commit = %v, %v", v, out, err)
		}
	}

	// Each daemon audits its own side of both commits of every
	// variant; every side must conform exactly and its ledger empty.
	for _, s := range fleet {
		auditUntil(t, s, 2*len(variants))
	}
	for _, v := range variants {
		volunteers := 0
		if v.Unsolicited() {
			volunteers = 2
		}
		write, _ := analytic.CoordCommitCost(v.String(), 2, 2, volunteers, false)
		ro, _ := analytic.CoordCommitCost(v.String(), 2, 0, 0, true)
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
// flush — so the runtime cost audit must stay exact under all five
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

	// A request naming participants and no ops is fully read-only: its
	// cost is the coordinator's forced Collecting record and End plus
	// one vote from each subordinate, and the scrape adds just that.
	status, cr, _ := postV1(t, coord, `{"tx":"C:2","variant":"pc","participants":["S1","S2"]}`)
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
