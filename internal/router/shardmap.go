// Package router is the shard-routing layer in front of a twopcd
// fleet: it owns the key-to-shard ownership map, resolves a multi-key
// transaction's typed operations to the shards that own them, picks
// the coordinator, and forwards the request so the live runtime runs
// two-phase commit with exactly the participating shards as
// subordinates.
//
// The same machinery serves three callers: the stateless
// cmd/twopcrouter daemon, the serving daemon itself (which resolves
// ops for requests that reach it directly), and shard-aware clients
// doing client-side routing from a /v1/shards fetch.
package router

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/api"
)

// ShardMap assigns every key an owning node. Two kinds exist:
//
//   - hash: a fixed member list; a key belongs to
//     members[fnv32a(key) mod n]. The default, and what a uniform
//     keyspace wants.
//   - range: an ordered list of (node, until) bounds; a key belongs
//     to the first entry whose until is empty or lexically greater
//     than the key. What a sorted keyspace with locality wants, and
//     the shape a future live-reconfiguration (splitting a hot range)
//     needs membership to be explicit for.
//
// The textual spec form accepted by Parse (and the -shardmap flag):
//
//	hash:S1,S2,S3            (or bare "S1,S2,S3")
//	range:S1=g,S2=t,S3=      (S1 owns keys < "g", S2 < "t", S3 the rest)
type ShardMap struct {
	kind   string
	nodes  []string    // hash members, in ring order
	ranges []api.Range // range bounds, sorted by Until with "" last
}

// Parse builds a ShardMap from its textual spec.
func Parse(spec string) (*ShardMap, error) {
	kind, body := "hash", spec
	if k, rest, ok := strings.Cut(spec, ":"); ok {
		kind, body = k, rest
	}
	switch kind {
	case "hash":
		var nodes []string
		for _, n := range strings.Split(body, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if strings.Contains(n, "=") {
				return nil, fmt.Errorf("router: hash shard map %q: member %q may not contain '=' (did you mean range:...?)", spec, n)
			}
			nodes = append(nodes, n)
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("router: hash shard map %q has no members", spec)
		}
		return &ShardMap{kind: "hash", nodes: nodes}, nil
	case "range":
		var ranges []api.Range
		for _, part := range strings.Split(body, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			node, until, ok := strings.Cut(part, "=")
			if !ok || node == "" {
				return nil, fmt.Errorf("router: range shard map %q: want node=until, got %q", spec, part)
			}
			ranges = append(ranges, api.Range{Node: node, Until: until})
		}
		if len(ranges) == 0 {
			return nil, fmt.Errorf("router: range shard map %q has no members", spec)
		}
		return newRangeMap(ranges, spec)
	default:
		return nil, fmt.Errorf("router: unknown shard map kind %q (want hash or range)", kind)
	}
}

func newRangeMap(ranges []api.Range, spec string) (*ShardMap, error) {
	sort.SliceStable(ranges, func(i, j int) bool {
		if (ranges[i].Until == "") != (ranges[j].Until == "") {
			return ranges[j].Until == "" // "" (the tail range) sorts last
		}
		return ranges[i].Until < ranges[j].Until
	})
	if ranges[len(ranges)-1].Until != "" {
		return nil, fmt.Errorf("router: range shard map %q needs a tail member with an empty bound (node=) owning the rest of the keyspace", spec)
	}
	for i := 0; i < len(ranges)-1; i++ {
		if ranges[i].Until == "" || ranges[i].Until == ranges[i+1].Until {
			return nil, fmt.Errorf("router: range shard map %q has duplicate bound %q", spec, ranges[i].Until)
		}
	}
	return &ShardMap{kind: "range", ranges: ranges}, nil
}

// FromAPI rebuilds a ShardMap from its wire document.
func FromAPI(m api.ShardMap) (*ShardMap, error) {
	switch m.Kind {
	case "hash":
		if len(m.Nodes) == 0 {
			return nil, fmt.Errorf("router: hash shard map with no members")
		}
		return &ShardMap{kind: "hash", nodes: append([]string(nil), m.Nodes...)}, nil
	case "range":
		if len(m.Ranges) == 0 {
			return nil, fmt.Errorf("router: range shard map with no members")
		}
		return newRangeMap(append([]api.Range(nil), m.Ranges...), "(wire)")
	default:
		return nil, fmt.Errorf("router: unknown shard map kind %q", m.Kind)
	}
}

// ToAPI renders the map as its wire document.
func (m *ShardMap) ToAPI() api.ShardMap {
	out := api.ShardMap{Kind: m.kind}
	out.Nodes = append(out.Nodes, m.nodes...)
	out.Ranges = append(out.Ranges, m.ranges...)
	return out
}

// String renders the spec form Parse accepts.
func (m *ShardMap) String() string {
	if m.kind == "hash" {
		return "hash:" + strings.Join(m.nodes, ",")
	}
	parts := make([]string, len(m.ranges))
	for i, r := range m.ranges {
		parts[i] = r.Node + "=" + r.Until
	}
	return "range:" + strings.Join(parts, ",")
}

// Nodes returns the member names, deduplicated, in map order.
func (m *ShardMap) Nodes() []string {
	if m.kind == "hash" {
		return append([]string(nil), m.nodes...)
	}
	var nodes []string
	seen := map[string]bool{}
	for _, r := range m.ranges {
		if !seen[r.Node] {
			seen[r.Node] = true
			nodes = append(nodes, r.Node)
		}
	}
	return nodes
}

// Owner resolves the node owning key.
func (m *ShardMap) Owner(key string) string {
	if m.kind == "hash" {
		// 32-bit FNV-1a, inline so that resolving a key allocates nothing.
		const offset32, prime32 = 2166136261, 16777619
		h := uint32(offset32)
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= prime32
		}
		return m.nodes[h%uint32(len(m.nodes))]
	}
	for _, r := range m.ranges {
		if r.Until == "" || key < r.Until {
			return r.Node
		}
	}
	return m.ranges[len(m.ranges)-1].Node // unreachable: tail bound is ""
}

// Resolve splits ops by owning node: groups[i] holds the ops nodes[i]
// owns, in request order. Node order is sorted, which is
// load-bearing: coordinators stage shards strictly in this order, so
// two transactions can never acquire locks on two shards in opposite
// orders — cross-shard deadlock cycles are impossible by construction,
// and the only cycles left are within one shard's lock manager, where
// its detector sees them. It runs once per request, so it builds no
// map: the groups are windows of one reordered copy of ops.
func (m *ShardMap) Resolve(ops []api.Op) (nodes []string, groups [][]api.Op) {
	var ownerBuf [8]string
	owners := ownerBuf[:0]
	nodes = make([]string, 0, min(len(ops), len(m.nodes)+len(m.ranges)))
	for _, op := range ops {
		o := m.Owner(op.Key)
		owners = append(owners, o)
		if !slices.Contains(nodes, o) {
			nodes = append(nodes, o)
		}
	}
	slices.Sort(nodes)
	grouped := make([]api.Op, 0, len(ops))
	groups = make([][]api.Op, len(nodes))
	for i, n := range nodes {
		start := len(grouped)
		for j, o := range owners {
			if o == n {
				grouped = append(grouped, ops[j])
			}
		}
		groups[i] = grouped[start:len(grouped):len(grouped)]
	}
	return nodes, groups
}

// FirstOwner resolves the owner of the first op's key — the
// first-shard coordinator choice. ok is false for an empty op list.
func (m *ShardMap) FirstOwner(ops []api.Op) (string, bool) {
	if len(ops) == 0 {
		return "", false
	}
	return m.Owner(ops[0].Key), true
}
