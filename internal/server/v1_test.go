package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/internal/protocol"
)

// postV1 posts a raw body to a daemon's /v1/commit and decodes either
// the response or the taxonomy error.
func postV1(t *testing.T, s *Server, body string) (int, *api.CommitResponse, *api.Error) {
	t.Helper()
	resp, err := http.Post("http://"+s.HTTPAddr()+api.PathCommit, "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("status %d with non-taxonomy body %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, nil, &e
	}
	var cr api.CommitResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode commit response %q: %v", raw, err)
	}
	return resp.StatusCode, &cr, nil
}

func commitJSON(t *testing.T, req api.CommitRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oversizedBody is a well-formed request one value past the 1 MiB
// body limit: truncating it would leave broken JSON, not a smaller
// request.
var oversizedBody = `{"tx":"` + strings.Repeat("a", api.MaxBody) + `"}`

// TestV1Taxonomy400 covers every malformed-request shape: broken
// JSON, invalid ops, no ops at all, unknown names.
func TestV1Taxonomy400(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cases := []struct {
		name, body string
	}{
		{"broken json", "{"},
		{"op without verb", `{"ops":[{"key":"k"}]}`},
		{"op without key", `{"ops":[{"op":"put","value":"v"}]}`},
		{"unknown verb", `{"ops":[{"key":"k","op":"incr"}]}`},
		{"get with value", `{"ops":[{"key":"k","op":"get","value":"v"}]}`},
		{"unknown variant", `{"variant":"3pc","ops":[{"key":"k","op":"get"}]}`},
		{"empty body", ``},
		{"no ops", `{"tx":"t1"}`},
		{"participants and no ops", `{"participants":["S1"]}`},
		{"trailing data", `{"tx":"t1"} {"tx":"t2"}`},
		{"oversized", oversizedBody},
	}
	for _, c := range cases {
		status, _, e := postV1(t, s, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, status)
			continue
		}
		if e.Code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, api.CodeBadRequest)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
		if c.body == oversizedBody && e.Error != "request body exceeds 1 MiB" {
			t.Errorf("%s: message %q, want the size limit named", c.name, e.Error)
		}
	}
	// A request refused as malformed takes no admission token.
	for c, counts := range s.AdmissionStats().PerClass {
		if counts.Admitted != 0 || counts.Shed != 0 {
			t.Errorf("class %v: %+v after malformed requests, want no admission decision", admission.Class(c), counts)
		}
	}

	// GET is not a commit.
	resp, err := http.Get("http://" + s.HTTPAddr() + api.PathCommit)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/commit: status %d, want 405", resp.StatusCode)
	}
}

// TestV1Taxonomy422UnknownShard: keys resolving to members without
// addresses.
func TestV1Taxonomy422UnknownShard(t *testing.T) {
	// Shard map names a member B this daemon has no HTTP address for.
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Enough distinct keys that at least one lands on B.
	ops := make([]api.Op, 0, 8)
	for i := 0; i < 8; i++ {
		ops = append(ops, api.Op{Key: fmt.Sprintf("k%d", i), Op: api.OpPut, Value: "v"})
	}
	status, _, e := postV1(t, s, commitJSON(t, api.CommitRequest{Tx: "t1", Ops: ops}))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if e.Code != api.CodeUnknownShard {
		t.Fatalf("code %q, want %q", e.Code, api.CodeUnknownShard)
	}
}

// TestV1Taxonomy503 covers both load-shed classes: the admission
// limit and drain.
func TestV1Taxonomy503(t *testing.T) {
	s, err := New(Config{Name: "A", MaxInflight: 1, AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy the only admission slot, then get shed.
	if err := s.acquire(admission.ClassNormal, 1); err != nil {
		t.Fatal(err)
	}
	status, _, e := postV1(t, s, `{"tx":"shed-me","ops":[{"key":"k","op":"put","value":"v"}]}`)
	if status != http.StatusServiceUnavailable || e.Code != api.CodeOverloaded {
		t.Fatalf("overloaded: status %d code %q", status, e.Code)
	}
	s.release()

	// Drain: same status, distinct code.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	status, _, e = postV1(t, s, `{"tx":"drained","ops":[{"key":"k","op":"put","value":"v"}]}`)
	if status != http.StatusServiceUnavailable || e.Code != api.CodeDraining {
		t.Fatalf("draining: status %d code %q", status, e.Code)
	}
}

// TestV1SingleNodeOps: a daemon with no shard map owns every key —
// typed ops stage locally, commit with zero subordinates, audit
// exactly, and reads return committed state.
func TestV1SingleNodeOps(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	status, cr, _ := postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx:  "w1",
		Ops: []api.Op{{Key: "x", Op: api.OpPut, Value: "1"}, {Key: "y", Op: api.OpPut, Value: "2"}},
	}))
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("write: status %d resp %+v", status, cr)
	}
	if cr.Coordinator != "A" || len(cr.Participants) != 0 {
		t.Fatalf("single-node shape wrong: %+v", cr)
	}
	if cr.Cost == nil || cr.Cost.ForcedWrites != 1 || cr.Cost.LogWrites != 2 {
		t.Fatalf("0-sub PA commit cost %+v, want 2 writes 1 forced", cr.Cost)
	}

	status, cr, _ = postV1(t, s, commitJSON(t, api.CommitRequest{
		Tx:  "r1",
		Ops: []api.Op{{Key: "x", Op: api.OpGet}, {Key: "missing", Op: api.OpGet}},
	}))
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("read: status %d resp %+v", status, cr)
	}
	if cr.Reads["x"] != "1" {
		t.Fatalf("reads %+v, want x=1", cr.Reads)
	}
	if _, ok := cr.Reads["missing"]; ok {
		t.Fatalf("absent key must be omitted from reads: %+v", cr.Reads)
	}
	// Only gets, and no subordinate: the store votes read-only, so the
	// commit logs nothing at all (§4 Read Only).
	if cr.Cost == nil || *cr.Cost != (api.CostSummary{}) {
		t.Fatalf("0-sub all-gets commit cost %+v, want nothing", cr.Cost)
	}
	if rep := s.AuditNow(); !rep.OK() || rep.Exact != rep.Checked || rep.Checked != 2 {
		t.Fatalf("audit after the read: %s", rep)
	}
	recs, err := s.cfg.Log.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Tx == "r1" {
			t.Fatalf("all-gets commit logged %+v", r)
		}
	}

	// A generated tx id comes back when the request names none, in a
	// protocol.TxID's own form.
	status, cr, _ = postV1(t, s, `{"ops":[{"key":"z","op":"put","value":"3"}]}`)
	if status != http.StatusOK || cr.Tx == "" || protocol.ParseTxID(cr.Tx).String() != cr.Tx {
		t.Fatalf("generated tx: status %d resp %+v", status, cr)
	}

	rep := s.AuditNow()
	if !rep.OK() || rep.Exact != rep.Checked || rep.Checked == 0 {
		t.Fatalf("audit after typed ops: %+v", rep)
	}
}

// TestV1MixedReadOnlySlices commits on three shards transactions whose
// slices mix puts with gets only: a shard that only read votes
// read-only and leaves at its vote. The response's cost is the form
// for those votes, and every daemon audits its part exactly.
func TestV1MixedReadOnlySlices(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	put := func(n string) api.Op { return api.Op{Key: keys[n], Op: api.OpPut, Value: "v-" + n} }
	get := func(n string) api.Op { return api.Op{Key: keys[n], Op: api.OpGet} }
	for i, tc := range []struct {
		name string
		ops  []api.Op
		cost api.CostSummary
	}{
		// Under the fleet's Basic 2PC a subordinate votes in its stage
		// reply when its slice writes or is staged last (S2): C sends a
		// Prepare only to S1 when S1 only reads, since a read-only vote
		// would release S1's locks before S2's are taken.
		// C and S2 read: one yes-voter. C sends one Commit and forces
		// its commit record; S1 the full subordinate share; S2 one vote.
		{"subordinate writes", []api.Op{get("C"), put("S1"), get("S2")}, api.CostSummary{Flows: 4, LogWrites: 5, ForcedWrites: 3}},
		// Only C writes: no delivery, so C's share is its Prepare to
		// S1, commit record and End; both subordinates send one vote
		// each.
		{"coordinator writes", []api.Op{put("C"), get("S1"), get("S2")}, api.CostSummary{Flows: 3, LogWrites: 2, ForcedWrites: 1}},
		// Nobody writes: S1's Prepare out, votes back, nothing logged.
		{"all read", []api.Op{get("C"), get("S1"), get("S2")}, api.CostSummary{Flows: 3}},
	} {
		status, cr, _ := postV1(t, fleet[0], commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("mix%d", i), Ops: tc.ops}))
		if status != http.StatusOK || cr.Outcome != "committed" {
			t.Fatalf("%s: status %d resp %+v", tc.name, status, cr)
		}
		if cr.Cost == nil || *cr.Cost != tc.cost {
			t.Fatalf("%s: cost %+v, want %+v", tc.name, cr.Cost, tc.cost)
		}
	}
	// The reads see the writes committed before them, and S2's key,
	// only ever read, is absent.
	status, cr, _ := postV1(t, fleet[0], commitJSON(t, api.CommitRequest{Tx: "readback", Ops: []api.Op{get("C"), get("S1"), get("S2")}}))
	if status != http.StatusOK || len(cr.Reads) != 2 || cr.Reads[keys["C"]] != "v-C" || cr.Reads[keys["S1"]] != "v-S1" {
		t.Fatalf("read-back: status %d resp %+v", status, cr)
	}
	for _, s := range fleet {
		auditUntil(t, s, 4)
	}
}

// TestV1ReadYourWrites: a PA or Basic 2PC commit is answered at its
// decision, before the owning shard has applied it, yet a get that
// follows at once, on any daemon, reads it: the owner holds the put's
// write lock until it applies the Commit, so the get's shared lock
// waits for it.
func TestV1ReadYourWrites(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	k := keys["S1"] // not the coordinator's
	variants := []string{"PA", "Basic2PC"}
	for i := 0; i < 200; i++ {
		want := fmt.Sprint(i)
		status, cr, _ := postV1(t, fleet[0], commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("put%d", i),
			Variant: variants[i%len(variants)], Ops: []api.Op{{Key: k, Op: api.OpPut, Value: want}}}))
		if status != http.StatusOK || cr.Outcome != "committed" {
			t.Fatalf("put %d: status %d resp %+v", i, status, cr)
		}
		for _, s := range fleet {
			status, cr, _ := postV1(t, s, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("get%d@%s", i, s.cfg.Name),
				Ops: []api.Op{{Key: k, Op: api.OpGet}}}))
			if status != http.StatusOK || cr.Reads[k] != want {
				t.Fatalf("get after put %d through %s: status %d resp %+v", i, s.cfg.Name, status, cr)
			}
		}
	}
}

// TestV1ShardsDocument: the fleet view a router or client bootstraps
// from.
func TestV1ShardsDocument(t *testing.T) {
	s, err := New(Config{Name: "A", ShardMap: "range:A=m,B=", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://b.example:1")

	resp, err := http.Get("http://" + s.HTTPAddr() + api.PathShards)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info api.ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "A" || info.Map.Kind != "range" || len(info.Map.Ranges) != 2 {
		t.Fatalf("shards document %+v", info)
	}
	if info.HTTP["B"] != "http://b.example:1" || info.HTTP["A"] == "" {
		t.Fatalf("member table %+v must carry B and self", info.HTTP)
	}

	// A daemon with no shard map reports itself as the whole fleet.
	solo, err := New(Config{Name: "Z", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	resp2, err := http.Get("http://" + solo.HTTPAddr() + api.PathShards)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var soloInfo api.ShardsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&soloInfo); err != nil {
		t.Fatal(err)
	}
	if soloInfo.Map.Kind != "hash" || len(soloInfo.Map.Nodes) != 1 || soloInfo.Map.Nodes[0] != "Z" {
		t.Fatalf("solo shards document %+v", soloInfo)
	}
}

// TestV1StageEndpoint: the fleet-internal data plane — tx required,
// abort discards, staged writes become visible only at commit.
func TestV1StageEndpoint(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stageURL := "http://" + s.HTTPAddr() + api.PathStage

	post := func(body string) (int, string) {
		resp, err := http.Post(stageURL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if status, _ := post(`{"ops":[{"key":"k","op":"put","value":"v"}]}`); status != http.StatusBadRequest {
		t.Fatalf("stage without tx: status %d, want 400", status)
	}
	// Stage bodies follow /v1/commit's rules: no trailing data, and a
	// body over the limit is named as such, not misread as broken JSON.
	if status, body := post(`{"tx":"st0"} garbage`); status != http.StatusBadRequest {
		t.Fatalf("stage with trailing data: status %d body %s, want 400", status, body)
	}
	if status, body := post(oversizedBody); status != http.StatusBadRequest || !strings.Contains(body, "request body exceeds 1 MiB") {
		t.Fatalf("oversized stage: status %d body %.200s, want 400 naming the limit", status, body)
	}
	if status, body := post(`{"tx":"st1","ops":[{"key":"k","op":"put","value":"v"}]}`); status != http.StatusOK {
		t.Fatalf("stage: status %d body %s", status, body)
	}
	// Abort discards the staged write and releases its locks: a new
	// transaction can take them and sees no value.
	if status, _ := post(`{"tx":"st1","abort":true}`); status != http.StatusOK {
		t.Fatal("stage abort failed")
	}
	status, cr, _ := postV1(t, s, `{"tx":"after-abort","ops":[{"key":"k","op":"get"}]}`)
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("post-abort read: status %d resp %+v", status, cr)
	}
	if _, ok := cr.Reads["k"]; ok {
		t.Fatalf("aborted staged write leaked: %+v", cr.Reads)
	}
}

// TestV1ResponseBodiesAsEncoder: /v1/commit and /v1/stage answer with
// the bytes json.Encoder.Encode writes for the same value, reads and
// cost included.
func TestV1ResponseBodiesAsEncoder(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	post := func(path, body string) []byte {
		resp, err := http.Post("http://"+s.HTTPAddr()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, raw)
		}
		return raw
	}
	reencode := func(raw []byte, v any) string {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	post(api.PathCommit, `{"tx":"w","ops":[{"key":"<k>","op":"put","value":"a&b\u2028"}]}`)
	for _, body := range []string{
		`{"tx":"r","ops":[{"key":"<k>","op":"get"},{"key":"missing","op":"get"}]}`,
		`{"ops":[{"key":"x","op":"put","value":"1"}],"variant":"pc"}`,
	} {
		raw := post(api.PathCommit, body)
		if want := reencode(raw, new(api.CommitResponse)); string(raw) != want {
			t.Errorf("/v1/commit answered\n%s\njson.Encoder writes\n%s", raw, want)
		}
	}
	for _, body := range []string{
		`{"tx":"st","ops":[{"key":"<k>","op":"get"}]}`,
		`{"tx":"st","abort":true}`,
	} {
		raw := post(api.PathStage, body)
		if want := reencode(raw, new(api.StageResponse)); string(raw) != want {
			t.Errorf("/v1/stage answered\n%s\njson.Encoder writes\n%s", raw, want)
		}
	}
}

// TestGeneratedTxIDParses: a generated transaction id is a
// protocol.TxID's own form, "name.startnanos:seq", so the kvstore's
// lock owner and log records name the transaction as the protocol log
// does, not by a hashed fallback.
func TestGeneratedTxIDParses(t *testing.T) {
	s, err := New(Config{Name: "F2", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	origin := strings.TrimSuffix(s.txPrefix, ":")
	for seq := uint64(1); seq <= 2; seq++ {
		id := s.nextTxID()
		if tx := protocol.ParseTxID(id); tx.String() != id || string(tx.Origin) != origin || tx.Seq != seq {
			t.Fatalf("generated %q parses to %+v (%q), want origin %q, seq %d", id, tx, tx.String(), origin, seq)
		}
	}
}
