// Package api defines the versioned HTTP transaction API (v1) spoken
// between clients, the shard router, and twopcd daemons: typed
// multi-key operations, the commit request/response envelope, the
// shard-map document served by /v1/shards, and the machine-readable
// error taxonomy.
//
// A request carries a list of typed get/put/delete operations; the
// receiving coordinator (or the router in front of the fleet) resolves
// each key's owning shard, stages the operations on the owners, and
// drives two-phase commit with exactly the participating shards as
// subordinates. The response reports the outcome, the resolved
// participants, read results, measured latency, and the analytic cost
// the paper's Tables 2-4 predict for that participant count.
package api

import "fmt"

// Version is the API version segment all v1 endpoints share.
const Version = "v1"

// Endpoint paths.
const (
	PathCommit = "/v1/commit"
	PathShards = "/v1/shards"
	PathStage  = "/v1/stage"
)

// OpKind is a typed operation verb.
type OpKind string

// Operation verbs.
const (
	OpGet    OpKind = "get"
	OpPut    OpKind = "put"
	OpDelete OpKind = "delete"
)

// Op is one key operation within a transaction.
type Op struct {
	Key   string `json:"key"`
	Op    OpKind `json:"op"`
	Value string `json:"value,omitempty"`
}

// Validate rejects malformed operations.
func (o Op) Validate() error {
	if o.Key == "" {
		return fmt.Errorf("op needs a key")
	}
	switch o.Op {
	case OpGet, OpDelete:
		if o.Value != "" {
			return fmt.Errorf("%s %q: value not allowed", o.Op, o.Key)
		}
	case OpPut:
	case "":
		return fmt.Errorf("op on %q needs a verb (get, put, delete)", o.Key)
	default:
		return fmt.Errorf("unknown op %q on %q (want get, put, delete)", o.Op, o.Key)
	}
	return nil
}

// Writes reports whether the operation mutates state.
func (o Op) Writes() bool { return o.Op == OpPut || o.Op == OpDelete }

// CommitRequest is the POST /v1/commit body.
type CommitRequest struct {
	// Tx names the transaction; empty means the coordinator generates
	// a unique id (returned in the response).
	Tx string `json:"tx,omitempty"`
	// Variant optionally overrides the daemon's default protocol
	// variant: any name protocol.ParseVariant takes, such as "basic",
	// "pa", "pn", "pc", "paxos" or "1pc".
	Variant string `json:"variant,omitempty"`
	// Ops are the transaction's typed key operations, at least one.
	// The participants are the keys' owners in the fleet shard map.
	Ops []Op `json:"ops,omitempty"`
}

// Validate rejects malformed requests (taxonomy: 400).
func (r CommitRequest) Validate() error {
	if len(r.Ops) == 0 {
		return fmt.Errorf("no ops: a transaction names at least one key operation")
	}
	for i, op := range r.Ops {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("ops[%d]: %w", i, err)
		}
	}
	return nil
}

// CostSummary is the analytic protocol spend the paper's closed forms
// predict for the transaction's shape (variant + participant count):
// total first-class flows, log writes, and forced log writes across
// the coordinator and every subordinate. The runtime audit
// (internal/audit) independently checks the measured ledger against
// the same forms, so this is the spend the caller may assume.
type CostSummary struct {
	Flows        int `json:"flows"`
	LogWrites    int `json:"log_writes"`
	ForcedWrites int `json:"forced_writes"`
}

// CommitResponse is the POST /v1/commit success body (the transaction
// ran to a decision; an aborted transaction is a 200 with outcome
// "aborted" — taxonomy errors are for requests that never ran).
type CommitResponse struct {
	Tx          string `json:"tx"`
	Outcome     string `json:"outcome"` // committed, aborted, in-doubt
	Variant     string `json:"variant"`
	Coordinator string `json:"coordinator"`
	// Participants are the subordinate shards the protocol actually
	// ran against (the coordinator's own shard is not listed).
	Participants []string `json:"participants"`
	// Reads maps each get op's key to its committed value; keys absent
	// from the store are omitted.
	Reads map[string]string `json:"reads,omitempty"`
	// Abort carries the abort reason when outcome is "aborted" (lock
	// conflict, deadlock victim, staging failure, no vote).
	Abort string `json:"abort,omitempty"`
	// LatencyMS is the coordinator-measured end-to-end latency.
	LatencyMS float64 `json:"latency_ms"`
	// Cost is the analytic spend for this shape; nil for outcomes the
	// closed forms do not cover exactly (aborts, in-doubt).
	Cost *CostSummary `json:"cost,omitempty"`
}

// StageRequest is the POST /v1/stage body: the coordinator asks a
// shard owner to apply its slice of a transaction's operations under
// the transaction's locks. The slice is the shard's whole part of the
// transaction, so this is its last work request. When the transaction's
// variant allows it (Basic 2PC and PA) and the slice writes, or no
// other slice is staged after it, the request names the variant: the
// shard then prepares once the slice is staged and votes in its reply
// (§4 Unsolicited Vote), and no Prepare follows on the protocol plane.
// A read-only slice staged ahead of others is not asked: its read-only
// vote would release its locks while the transaction still takes more
// elsewhere. Without a variant the shard only stages, ahead of the
// Prepare. Abort true instead discards whatever was staged, for a shard
// that has not voted (the transaction never reached phase one).
type StageRequest struct {
	Tx string `json:"tx"`
	// Variant is the coordinator's protocol variant, by any name
	// protocol.ParseVariant takes: the shard prepares under it and
	// votes. Empty asks for no vote.
	Variant string `json:"variant,omitempty"`
	Ops     []Op   `json:"ops,omitempty"`
	Abort   bool   `json:"abort,omitempty"`
}

// StageResponse reports staged reads back to the coordinator and, when
// the request asked for it, the shard's vote.
type StageResponse struct {
	Tx string `json:"tx"`
	// Vote is VoteYes, VoteReadOnly or VoteNo; empty when none was
	// asked for.
	Vote  string            `json:"vote,omitempty"`
	Reads map[string]string `json:"reads,omitempty"`
}

// The votes a StageResponse carries.
const (
	VoteYes      = "yes"
	VoteReadOnly = "read-only"
	VoteNo       = "no"
)

// ShardMap is the wire form of a fleet's key-ownership map, served by
// /v1/shards and consumed by routers and shard-aware clients.
type ShardMap struct {
	// Kind is "hash" or "range".
	Kind string `json:"kind"`
	// Nodes is the hash ring member list (kind "hash"): a key is owned
	// by Nodes[fnv32a(key) mod len(Nodes)].
	Nodes []string `json:"nodes,omitempty"`
	// Ranges is the ordered bound list (kind "range"): a key is owned
	// by the first entry whose Until is empty or lexically greater
	// than the key.
	Ranges []Range `json:"ranges,omitempty"`
}

// Range is one range-map entry: Node owns keys < Until (the last
// entry's Until is empty, meaning "everything after").
type Range struct {
	Node  string `json:"node"`
	Until string `json:"until,omitempty"`
}

// ShardsResponse is the GET /v1/shards body: the node's view of the
// fleet — the shard map plus the HTTP base URL of every member, which
// is what a client needs for client-side routing.
type ShardsResponse struct {
	Name string   `json:"name"`
	Map  ShardMap `json:"map"`
	// HTTP maps member names to their observability/API base URLs
	// (including this node's own).
	HTTP map[string]string `json:"http,omitempty"`
}

// Error codes (machine-readable; the HTTP status carries the class).
const (
	// CodeBadRequest (400): malformed JSON, invalid op, unknown
	// variant name.
	CodeBadRequest = "bad_request"
	// CodeUnknownShard (422): a key resolved to no owner, or a named
	// participant is not a known fleet member.
	CodeUnknownShard = "unknown_shard"
	// CodeOverloaded (503): the admission limit shed the request.
	CodeOverloaded = "overloaded"
	// CodeDraining (503): the daemon is draining for shutdown.
	CodeDraining = "draining"
	// CodeInternal (500): the transaction failed for a reason that is
	// not a taxonomy class (endpoint wiring, protocol failure).
	CodeInternal = "internal"
)

// Error is the machine-readable error body every non-2xx v1 response
// carries.
type Error struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// RetryAfterMS accompanies CodeOverloaded: the admission bucket's
	// refill time to this request's admission point — when retrying is
	// worthwhile rather than more load to shed. Mirrored in the HTTP
	// Retry-After header (seconds).
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

// ErrorOf builds an Error with a formatted message.
func ErrorOf(code, format string, args ...any) Error {
	return Error{Code: code, Error: fmt.Sprintf(format, args...)}
}
