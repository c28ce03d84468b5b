package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/analytic"
	"repro/internal/api"
	"repro/internal/kvstore"
	"repro/internal/live"
	"repro/internal/protocol"
)

// httpError pairs an HTTP status with the machine-readable error body
// of the v1 taxonomy. retryAfter, when set, becomes the Retry-After
// header (admission sheds tell clients when retrying is worthwhile).
type httpError struct {
	status     int
	e          api.Error
	retryAfter time.Duration
}

func (h *httpError) Error() string { return h.e.Error }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, e: api.ErrorOf(api.CodeBadRequest, format, args...)}
}

func errUnknownShard(format string, args ...any) *httpError {
	return &httpError{status: http.StatusUnprocessableEntity, e: api.ErrorOf(api.CodeUnknownShard, format, args...)}
}

func writeAPIError(w http.ResponseWriter, herr *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatFloat(herr.retryAfter.Seconds(), 'f', 3, 64))
	}
	w.WriteHeader(herr.status)
	_ = json.NewEncoder(w).Encode(herr.e)
}

// handleV1Commit is POST /v1/commit: the versioned, typed commit
// plane. See runV1 for the taxonomy.
func (s *Server) handleV1Commit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, &httpError{status: http.StatusMethodNotAllowed, e: api.ErrorOf(api.CodeBadRequest, "POST only")})
		return
	}
	var creq api.CommitRequest
	if herr := decodeRequest(r, &creq); herr != nil {
		writeAPIError(w, herr)
		return
	}
	resp, herr := s.runV1(r.Context(), creq)
	if herr != nil {
		writeAPIError(w, herr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = api.WriteCommitResponse(w, resp)
}

// decodeRequest reads a v1 request body into v, the one body reader of
// /v1/commit and /v1/stage. An empty body leaves v zero.
func decodeRequest(r *http.Request, v any) *httpError {
	switch err := api.DecodeBody(r.Body, v); {
	case err == nil, errors.Is(err, io.EOF):
		return nil
	case errors.Is(err, api.ErrBodyTooLarge):
		return errBadRequest("request body exceeds 1 MiB")
	default:
		return errBadRequest("decode request: %v", err)
	}
}

// runV1 validates, stages, and runs one typed transaction. The error
// taxonomy: 400 malformed request, 422 a key
// or named participant resolves to no known shard, 503 shed or
// draining. A transaction that runs and aborts is not an error — the
// response reports outcome "aborted" with the reason.
func (s *Server) runV1(ctx context.Context, creq api.CommitRequest) (*api.CommitResponse, *httpError) {
	if err := creq.Validate(); err != nil {
		return nil, errBadRequest("%v", err)
	}
	v := s.cfg.Variant
	if creq.Variant != "" {
		parsed, ok := ParseVariant(creq.Variant)
		if !ok {
			return nil, errBadRequest("unknown variant %q", creq.Variant)
		}
		v = parsed
	}
	tx := creq.Tx
	if tx == "" {
		tx = s.nextTxID()
	}

	// Resolve the transaction's shape before admission so taxonomy
	// errors never consume a slot.
	var (
		participants []string   // every owning shard, self included
		subs         []string   // the subordinate set (participants minus self)
		groups       [][]api.Op // groups[i]: the ops participants[i] owns
	)
	switch {
	case len(creq.Ops) > 0:
		if s.smap != nil {
			participants, groups = s.smap.Resolve(creq.Ops)
		} else {
			// No shard map: this daemon owns the whole keyspace.
			participants = []string{s.cfg.Name}
			groups = [][]api.Op{creq.Ops}
		}
		for _, n := range participants {
			if n == s.cfg.Name {
				continue
			}
			if _, ok := s.peerHTTPOf(n); !ok {
				return nil, errUnknownShard("shard %q owns keys of this transaction but has no known HTTP address", n)
			}
			subs = append(subs, n)
		}
	case len(creq.Participants) > 0:
		for _, n := range creq.Participants {
			if n == s.cfg.Name {
				return nil, errBadRequest("participant %q is the coordinator itself", n)
			}
			if !s.knownPeer(n) {
				return nil, errUnknownShard("unknown participant %q: not a registered fleet member", n)
			}
		}
		participants = creq.Participants
		subs = creq.Participants
	default:
		participants = s.cfg.Subs
		subs = s.cfg.Subs
	}

	// Classify the transaction's cost profile for admission: a request
	// of only gets is read-only (shed last — no forced writes, no
	// second phase under PA), and the participant count its keys
	// resolved to is its width (wide fan-out sheds first).
	readOnly := len(creq.Ops) > 0 && !slices.ContainsFunc(creq.Ops, api.Op.Writes)
	width := len(subs) + 1
	class := admission.ClassFor(readOnly, width)
	if err := s.acquire(class, admission.CostOf(class, width)); err != nil {
		apiCode := api.CodeOverloaded
		if errors.Is(err, ErrDraining) {
			apiCode = api.CodeDraining
		}
		herr := &httpError{status: http.StatusServiceUnavailable, e: api.ErrorOf(apiCode, "%v", err)}
		var shed *ShedError
		if errors.As(err, &shed) {
			herr.e.RetryAfterMS = float64(shed.RetryAfter) / float64(time.Millisecond)
			herr.retryAfter = shed.RetryAfter
		}
		return nil, herr
	}
	defer s.release()

	start := time.Now()
	var reads map[string]string // made at the first read: writes need none

	// Stage each owning shard's slice, strictly in the sorted order
	// Resolve returns: with every coordinator acquiring shards in the
	// same global order, no two transactions can hold locks on two
	// shards in opposite orders, so cross-shard deadlock cycles are
	// impossible and the only cycles left are within one shard's lock
	// manager, where its detector resolves them. A slice is the whole
	// of a shard's part, so where the variant allows it a remote shard
	// votes in its stage reply (§4 Unsolicited Vote), and Commit sends
	// it no Prepare. Only a slice that writes, or the last one staged,
	// is asked: a read-only vote releases the shard's locks, and a
	// transaction that still takes locks elsewhere after releasing some
	// is no longer two-phase (a later writer could slip in between its
	// read and its remaining stages). A yes-voter holds every lock
	// until the outcome.
	volunteer := s.part.TakesVolunteers(v)
	var (
		staged   []string // shards holding staged state and no vote
		prepared []string // shards that voted yes, or may have
		votes    []live.Vote
	)
	abortStaged := func() {
		for _, n := range staged {
			if n == s.cfg.Name {
				_ = s.store.Abort(protocol.ParseTxID(tx))
				continue
			}
			s.stageRemote(context.Background(), n, api.StageRequest{Tx: tx, Abort: true})
		}
		if len(prepared) > 0 {
			// A prepared shard keeps its locks until an outcome reaches
			// it through the protocol.
			s.part.AbortVolunteered(tx, prepared, v)
		}
	}
	for i, ops := range groups {
		n := participants[i]
		var (
			nodeReads map[string]string
			asked     bool
			vote      protocol.VoteValue
			voted     bool
			err       error
		)
		if n == s.cfg.Name {
			nodeReads, err = s.stageLocal(ctx, tx, ops)
		} else {
			sreq := api.StageRequest{Tx: tx, Ops: ops}
			if asked = volunteer && (i == len(groups)-1 || slices.ContainsFunc(ops, api.Op.Writes)); asked {
				sreq.Variant = v.String()
			}
			var sresp api.StageResponse
			sresp, err = s.stageRemote(ctx, n, sreq)
			nodeReads = sresp.Reads
			vote, voted = voteOf(sresp.Vote)
		}
		switch {
		case err != nil && asked && !errors.As(err, new(*stageRefusal)):
			// No answer came: the shard may have voted yes.
			prepared = append(prepared, n)
		case !voted:
			staged = append(staged, n) // on a failure, it may hold partial state
		case vote == protocol.VoteYes:
			prepared = append(prepared, n)
		}
		if voted {
			votes = append(votes, live.Vote{From: n, Vote: vote})
		}
		if err != nil {
			abortStaged()
			var herr *httpError
			if errors.As(err, &herr) {
				return nil, herr
			}
			// Lock conflicts, deadlock victims, and staging timeouts
			// abort the transaction before phase one: outcome, not error.
			return &api.CommitResponse{
				Tx: tx, Outcome: live.Aborted.String(), Variant: v.String(),
				Coordinator: s.cfg.Name, Participants: subs,
				Abort:     fmt.Sprintf("staging on %s: %v", n, err),
				LatencyMS: msSince(start),
			}, nil
		}
		for k, val := range nodeReads {
			if reads == nil {
				reads = make(map[string]string, len(nodeReads))
			}
			reads[k] = val
		}
	}

	s.part.PostVotes(tx, votes)
	out, err := s.part.CommitVariant(ctx, tx, subs, v)
	resp := &api.CommitResponse{
		Tx:           tx,
		Outcome:      out.String(),
		Variant:      v.String(),
		Coordinator:  s.cfg.Name,
		Participants: subs,
		LatencyMS:    msSince(start),
	}
	switch out {
	case live.Committed:
		resp.Reads = reads
		// The votes follow from the staged slices: a shard whose slice
		// has no put or delete votes read-only (kvstore.Prepare), and so
		// does every node of a request without ops.
		coordRO, roSubs := true, len(subs)
		for i, ops := range groups {
			switch {
			case !slices.ContainsFunc(ops, api.Op.Writes):
			case participants[i] == s.cfg.Name:
				coordRO = false
			default:
				roSubs--
			}
		}
		if total, ok := analytic.CommitCostByVotes(v.String(), len(subs), roSubs, len(votes), coordRO); ok {
			resp.Cost = &api.CostSummary{Flows: total.Flows, LogWrites: total.Writes, ForcedWrites: total.Forced}
		}
	default:
		if err != nil {
			resp.Abort = err.Error()
		}
	}
	return resp, nil
}

// voteOf reads a StageResponse's vote.
func voteOf(s string) (protocol.VoteValue, bool) {
	switch s {
	case api.VoteYes:
		return protocol.VoteYes, true
	case api.VoteReadOnly:
		return protocol.VoteReadOnly, true
	case api.VoteNo:
		return protocol.VoteNo, true
	}
	return protocol.VoteNo, false
}

// voteName is vote as a StageResponse carries it.
func voteName(vote protocol.VoteValue) string {
	switch vote {
	case protocol.VoteYes:
		return api.VoteYes
	case protocol.VoteReadOnly:
		return api.VoteReadOnly
	}
	return api.VoteNo
}

// stageRefusal is a /v1/stage call the shard answered with an error
// status: it discarded the slice and did not vote.
type stageRefusal struct{ msg string }

func (e *stageRefusal) Error() string { return e.msg }

// msSince is elapsed wall time in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// stageLocal applies one shard slice to this daemon's own store. The
// store bounds the slice's lock waits by StageTimeout in all, counted
// from its first lock request (kvstore.WithLockWait).
func (s *Server) stageLocal(ctx context.Context, tx string, ops []api.Op) (map[string]string, error) {
	id := protocol.ParseTxID(tx)
	var reads map[string]string // made at the first read: writes need none
	for _, op := range ops {
		var err error
		switch op.Op {
		case api.OpGet:
			var val string
			val, err = s.store.Get(ctx, id, op.Key)
			if errors.Is(err, kvstore.ErrNotFound) {
				err = nil // absent keys read as no entry, not a failure
			} else if err == nil {
				if reads == nil {
					reads = make(map[string]string)
				}
				reads[op.Key] = val
			}
		case api.OpPut:
			err = s.store.Put(ctx, id, op.Key, op.Value)
		case api.OpDelete:
			err = s.store.Delete(ctx, id, op.Key)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return nil, err
		}
	}
	s.countStagedOps(len(ops))
	return reads, nil
}

// httpPeer is a fleet member's HTTP surface: its base URL, and the
// template every /v1/stage request to it is copied from, its URL
// parsed once at registration (or why it would not parse).
type httpPeer struct {
	base  string
	stage *http.Request
	err   error
}

// stageHeader is every stage request's header, shared and never
// written: the transport only reads a request's header.
var stageHeader = http.Header{"Content-Type": {"application/json"}}

func newHTTPPeer(baseURL string) httpPeer {
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(baseURL, "/")+api.PathStage, nil)
	if err != nil {
		return httpPeer{base: baseURL, err: err}
	}
	req.Header = stageHeader
	return httpPeer{base: baseURL, stage: req}
}

// stageRequest copies the peer's template for one stage call with its
// body. GetBody rewinds the body, so the transport may send it again
// on a fresh connection. The body is io.NopCloser over a bytes.Reader
// because net/http writes such a request, header and body, in one
// write; a reader type it does not know gets its header flushed in a
// write of its own, and the peer's read of the request in two parts.
func (p httpPeer) stageRequest(ctx context.Context, body []byte) (*http.Request, error) {
	if p.err != nil {
		return nil, p.err
	}
	req := p.stage.WithContext(ctx)
	req.ContentLength = int64(len(body))
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	return req, nil
}

// stageRemote posts one shard slice to the owning daemon's /v1/stage.
// Abort requests are best-effort. The call goes straight to the stage
// transport, which bounds it (see stageTransport): an http.Client
// would copy the headers for redirects the stage plane never follows.
// A shard that answers with an error status gives a *stageRefusal.
func (s *Server) stageRemote(ctx context.Context, node string, sreq api.StageRequest) (api.StageResponse, error) {
	var sresp api.StageResponse
	peer, ok := s.peerHTTPOf(node)
	if !ok {
		return sresp, errUnknownShard("no HTTP address for shard %q", node)
	}
	req, err := peer.stageRequest(ctx, api.MarshalStageRequest(&sreq))
	if err != nil {
		return sresp, err
	}
	resp, err := s.httpc.Transport.RoundTrip(req)
	if err != nil {
		return sresp, fmt.Errorf("stage %s: %w", node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.Error
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return sresp, &stageRefusal{fmt.Sprintf("stage %s: %s (%s)", node, e.Error, e.Code)}
		}
		return sresp, &stageRefusal{fmt.Sprintf("stage %s: %s: %s", node, resp.Status, strings.TrimSpace(string(raw)))}
	}
	if err := api.DecodeBody(resp.Body, &sresp); err != nil {
		return api.StageResponse{}, fmt.Errorf("stage %s: decode response: %w", node, err)
	}
	return sresp, nil
}

// handleStage is POST /v1/stage: the fleet-internal data plane. A
// coordinator delivers the operations this shard owns for a
// transaction, and they are applied under the transaction's locks.
// When the request names the coordinator's variant, this shard's part
// is done: it prepares through the participant under that variant
// (forcing its Prepared record on a yes) and answers with its vote, so
// no Prepare follows on the protocol plane and the outcome arrives
// there next (§4 Unsolicited Vote). Otherwise the slice waits for the
// Prepare. Abort discards staged state for a transaction this shard
// has not voted in. A transaction name the participant still
// remembers (live, decided, or a kept read-only vote) is refused with
// 409 and leaves the store untouched: a client may reuse a name, and
// taking it up again would stage work no Prepare or outcome reaches.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, &httpError{status: http.StatusMethodNotAllowed, e: api.ErrorOf(api.CodeBadRequest, "POST only")})
		return
	}
	var sreq api.StageRequest
	if herr := decodeRequest(r, &sreq); herr != nil {
		writeAPIError(w, herr)
		return
	}
	if sreq.Tx == "" {
		writeAPIError(w, errBadRequest("stage needs a tx"))
		return
	}
	if s.part.Remembers(sreq.Tx) {
		writeAPIError(w, &httpError{status: http.StatusConflict, e: api.ErrorOf("conflict", "transaction %s is already known here", sreq.Tx)})
		return
	}
	if sreq.Abort {
		_ = s.store.Abort(protocol.ParseTxID(sreq.Tx))
		w.Header().Set("Content-Type", "application/json")
		_ = api.WriteStageResponse(w, &api.StageResponse{Tx: sreq.Tx})
		return
	}
	for i, op := range sreq.Ops {
		if err := op.Validate(); err != nil {
			writeAPIError(w, errBadRequest("ops[%d]: %v", i, err))
			return
		}
	}
	var v protocol.Variant
	if sreq.Variant != "" {
		var ok bool
		if v, ok = ParseVariant(sreq.Variant); !ok || !v.Unsolicited() {
			writeAPIError(w, errBadRequest("variant %q takes no vote with the stage reply", sreq.Variant))
			return
		}
	}
	resp := api.StageResponse{Tx: sreq.Tx}
	reads, err := s.stageLocal(r.Context(), sreq.Tx, sreq.Ops)
	if err == nil && sreq.Variant != "" {
		var vote protocol.VoteValue
		if vote, err = s.part.Volunteer(sreq.Tx, v); err == nil {
			resp.Vote = voteName(vote)
		}
	}
	if err != nil {
		// Lock conflict, deadlock victim, or timeout: the shard could
		// not take the transaction's locks (or it cannot vote: the
		// transaction is decided here). The staged remainder is
		// discarded here; the coordinator aborts the transaction.
		_ = s.store.Abort(protocol.ParseTxID(sreq.Tx))
		writeAPIError(w, &httpError{status: http.StatusConflict, e: api.ErrorOf("conflict", "%v", err)})
		return
	}
	resp.Reads = reads
	w.Header().Set("Content-Type", "application/json")
	_ = api.WriteStageResponse(w, &resp)
}

// handleShards is GET /v1/shards: the node's fleet view, consumed by
// routers and shard-aware clients for client-side routing.
func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	var m api.ShardMap
	if s.smap != nil {
		m = s.smap.ToAPI()
	} else {
		m = api.ShardMap{Kind: "hash", Nodes: []string{s.cfg.Name}}
	}
	httpTable := map[string]string{s.cfg.Name: s.selfHTTPURL()}
	s.mu.Lock()
	for n, p := range s.peerHTTP {
		httpTable[n] = p.base
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.ShardsResponse{
		Name: s.cfg.Name,
		Map:  m,
		HTTP: httpTable,
	})
}
