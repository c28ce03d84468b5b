package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

func TestParseSpecs(t *testing.T) {
	for _, spec := range []string{"hash:S1,S2,S3", "S1,S2,S3", "range:S1=g,S2=t,S3="} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := m.Nodes(); len(got) != 3 {
			t.Fatalf("Parse(%q): nodes %v", spec, got)
		}
	}
	for _, bad := range []string{
		"",                    // no members
		"hash:",               // no members
		"range:",              // no members
		"range:S1=g,S2=t",     // no tail member owning the rest
		"range:S1=g,S2=g,S3=", // duplicate bound
		"range:S1",            // not node=until
		"hash:S1=g,S2",        // '=' in a hash member
		"ring:S1,S2",          // unknown kind
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

func TestRangeOwnerBoundaryKeys(t *testing.T) {
	// S1 owns keys < "g", S2 owns ["g","t"), S3 owns the rest. The
	// bound key itself belongs to the NEXT range — "g" is not < "g".
	m, err := Parse("range:S1=g,S2=t,S3=")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"":      "S1", // empty key sorts before every bound
		"a":     "S1",
		"fzzzz": "S1",
		"g":     "S2", // exactly on the first bound
		"ga":    "S2",
		"szzzz": "S2",
		"t":     "S3", // exactly on the second bound
		"z":     "S3",
		"zzzzz": "S3",
	}
	for key, want := range cases {
		if got := m.Owner(key); got != want {
			t.Errorf("Owner(%q) = %s, want %s", key, got, want)
		}
	}
}

func TestRangeSpecOrderIrrelevant(t *testing.T) {
	// The spec may list ranges in any order; bounds define ownership.
	a, err := Parse("range:S3=,S1=g,S2=t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("range:S1=g,S2=t,S3=")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "g", "m", "t", "z"} {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("Owner(%q) differs by spec order: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestHashDistributionAndStability(t *testing.T) {
	m, err := Parse("hash:S1,S2,S3")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("k%06d", i)
		owner := m.Owner(key)
		counts[owner]++
		if again := m.Owner(key); again != owner {
			t.Fatalf("Owner(%q) unstable: %s then %s", key, owner, again)
		}
	}
	for _, n := range []string{"S1", "S2", "S3"} {
		if counts[n] < 600 {
			t.Errorf("shard %s owns %d/3000 keys; hash spread too skewed: %v", n, counts[n], counts)
		}
	}
}

func TestResolveSortsParticipantsAndSplitsOps(t *testing.T) {
	m, err := Parse("range:S1=g,S2=t,S3=")
	if err != nil {
		t.Fatal(err)
	}
	ops := []api.Op{
		{Key: "zebra", Op: api.OpPut, Value: "1"}, // S3
		{Key: "apple", Op: api.OpPut, Value: "2"}, // S1
		{Key: "mango", Op: api.OpGet},             // S2
		{Key: "zoo", Op: api.OpDelete},            // S3
	}
	nodes, groups := m.Resolve(ops)
	// Sorted node order is the cross-shard deadlock-freedom invariant:
	// every coordinator stages shards in this order.
	if !sort.StringsAreSorted(nodes) {
		t.Fatalf("Resolve returned unsorted nodes %v", nodes)
	}
	if len(nodes) != 3 {
		t.Fatalf("want 3 participants, got %v", nodes)
	}
	if len(groups) != len(nodes) || nodes[2] != "S3" {
		t.Fatalf("groups %v do not line up with nodes %v", groups, nodes)
	}
	if len(groups[0]) != 1 || groups[0][0].Key != "apple" || len(groups[1]) != 1 || groups[1][0].Key != "mango" {
		t.Fatalf("S1/S2 ops misplaced: %v", groups)
	}
	if len(groups[2]) != 2 || groups[2][0].Key != "zebra" || groups[2][1].Key != "zoo" {
		t.Fatalf("S3 ops lost request order: %v", groups[2])
	}
	if first, ok := m.FirstOwner(ops); !ok || first != "S3" {
		t.Fatalf("FirstOwner = %q, want S3", first)
	}
	if _, ok := m.FirstOwner(nil); ok {
		t.Fatal("FirstOwner of no ops must report !ok")
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, spec := range []string{"hash:S1,S2,S3", "range:S1=g,S2=t,S3="} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromAPI(m.ToAPI())
		if err != nil {
			t.Fatalf("FromAPI(ToAPI(%q)): %v", spec, err)
		}
		if back.String() != m.String() {
			t.Fatalf("round trip changed %q to %q", m, back)
		}
		for _, key := range []string{"a", "g", "k000123", "t", "zz"} {
			if back.Owner(key) != m.Owner(key) {
				t.Fatalf("%s: Owner(%q) changed across the wire", spec, key)
			}
		}
	}
}

func TestCoordinatorPick(t *testing.T) {
	m, _ := Parse("hash:S1,S2,S3")
	httpTable := map[string]string{"S1": "http://a", "S2": "http://b", "S3": "http://c"}

	first := &Router{pick: PickFirstShard}
	first.adopt(m, httpTable)
	if got := first.Coordinator("S2", []string{"S1", "S2", "S3"}); got != "S2" {
		t.Fatalf("first-shard pick = %s, want S2", got)
	}

	least := &Router{pick: PickLeastLoaded}
	least.adopt(m, httpTable)
	// Load S2 (the first owner) and S1; S3 is idle and must win.
	least.loadOf("S2").Add(5)
	least.loadOf("S1").Add(3)
	if got := least.Coordinator("S2", []string{"S1", "S2", "S3"}); got != "S3" {
		t.Fatalf("least-loaded pick = %s, want S3", got)
	}
	// A single participant is always its own coordinator.
	if got := least.Coordinator("S2", []string{"S2"}); got != "S2" {
		t.Fatalf("single-participant pick = %s, want S2", got)
	}
}

func TestCoordinatorPickAvoidsPenalized(t *testing.T) {
	m, _ := Parse("hash:S1,S2,S3")
	httpTable := map[string]string{"S1": "http://a", "S2": "http://b", "S3": "http://c"}
	least := &Router{pick: PickLeastLoaded}
	least.adopt(m, httpTable)

	// S3 is idle but shed a commit with 503: least-loaded must steer
	// around it even though its load counter is the lowest.
	least.loadOf("S2").Add(5)
	least.loadOf("S1").Add(3)
	least.notePenalty("S3", time.Second)
	if got := least.Coordinator("S2", []string{"S1", "S2", "S3"}); got != "S1" {
		t.Fatalf("pick with S3 penalized = %s, want S1", got)
	}

	// Every candidate penalized: load decides again (nobody is refused
	// outright — the daemons' own admission does the final shedding).
	least.notePenalty("S1", time.Second)
	least.notePenalty("S2", time.Second)
	if got := least.Coordinator("S2", []string{"S1", "S2", "S3"}); got != "S3" {
		t.Fatalf("pick with all penalized = %s, want least-loaded S3", got)
	}

	// Penalties expire: an elapsed window stops steering.
	least.mu.Lock()
	least.penalty["S3"] = time.Now().Add(-time.Millisecond)
	least.mu.Unlock()
	if got := least.Coordinator("S2", []string{"S1", "S2", "S3"}); got != "S3" {
		t.Fatalf("pick after penalty expiry = %s, want S3", got)
	}
}

func TestParsePick(t *testing.T) {
	if p, err := ParsePick("least-loaded"); err != nil || p != PickLeastLoaded {
		t.Fatalf("ParsePick(least-loaded) = %v, %v", p, err)
	}
	if p, err := ParsePick(""); err != nil || p != PickFirstShard {
		t.Fatalf("ParsePick(\"\") = %v, %v", p, err)
	}
	if _, err := ParsePick("round-robin"); err == nil {
		t.Fatal("ParsePick(round-robin): want error")
	}
}

var sinkNodes []string

// TestResolveAllocs guards the per-request resolve: three ops on three
// shards cost the participant list, the op groups and their one
// backing array, and no map.
func TestResolveAllocs(t *testing.T) {
	m, err := Parse("range:S1=g,S2=t,S3=")
	if err != nil {
		t.Fatal(err)
	}
	ops := []api.Op{
		{Key: "zebra", Op: api.OpPut, Value: "1"},
		{Key: "apple", Op: api.OpPut, Value: "2"},
		{Key: "mango", Op: api.OpPut, Value: "3"},
	}
	allocs := testing.AllocsPerRun(100, func() { sinkNodes, _ = m.Resolve(ops) })
	if allocs > 3 {
		t.Fatalf("Resolve of 3 ops on 3 shards allocates %.0f times, want at most 3", allocs)
	}
	if len(sinkNodes) != 3 {
		t.Fatalf("Resolve found %v", sinkNodes)
	}
}

// TestRouterRejectsOversizedBody: a body over the 1 MiB limit is
// refused by name, not truncated and forwarded as broken JSON.
func TestRouterRejectsOversizedBody(t *testing.T) {
	m, _ := Parse("hash:S1")
	r := &Router{pick: PickFirstShard}
	r.adopt(m, map[string]string{"S1": "http://s1.example:1"})
	body := `{"tx":"` + strings.Repeat("a", api.MaxBody) + `"}`
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathCommit, strings.NewReader(body)))
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("status %d body %.200s: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusBadRequest || e.Code != api.CodeBadRequest || e.Error != "request body exceeds 1 MiB" {
		t.Fatalf("oversized body: status %d error %+v", rec.Code, e)
	}
}

// TestRouterRejectsRequestWithoutOps: a request with no ops is refused
// with 400 before any forward, and one with ops reaches its coordinator.
func TestRouterRejectsRequestWithoutOps(t *testing.T) {
	var forwarded atomic.Int32
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		forwarded.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"tx":"t","outcome":"committed","variant":"PA","coordinator":"S1","participants":[],"latency_ms":0}`)
	}))
	defer member.Close()
	m, _ := Parse("hash:S1")
	r := &Router{pick: PickFirstShard, client: member.Client()}
	r.adopt(m, map[string]string{"S1": member.URL})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathCommit, strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{`{}`, `{"tx":"t1"}`, `{"participants":["S1"]}`} {
		rec := post(body)
		var e api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d body %s, want 400 %s", body, rec.Code, rec.Body, api.CodeBadRequest)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("%d requests without ops were forwarded", n)
	}
	if rec := post(`{"ops":[{"key":"k","op":"get"}]}`); rec.Code != http.StatusOK || forwarded.Load() != 1 {
		t.Fatalf("request with ops: status %d, %d forwarded", rec.Code, forwarded.Load())
	}
}
