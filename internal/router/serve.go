package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// Handler assembles the router's HTTP surface: POST /v1/commit
// (resolve + pick + forward), GET /v1/shards (the adopted fleet
// view), and /healthz.
func (r *Router) Handler() http.Handler {
	m := http.NewServeMux()
	m.HandleFunc(api.PathCommit, r.handleCommit)
	m.HandleFunc(api.PathShards, r.handleShards)
	m.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return m
}

func writeError(w http.ResponseWriter, status int, e api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

func (r *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	r.mu.RLock()
	smap := r.smap
	httpTable := make(map[string]string, len(r.http))
	for k, v := range r.http {
		httpTable[k] = v
	}
	r.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.ShardsResponse{
		Name: "router",
		Map:  smap.ToAPI(),
		HTTP: httpTable,
	})
}

// handleCommit resolves the request's keys to their owning shards,
// picks the coordinator, and forwards the request body to the
// coordinator's own /v1/commit. The coordinator re-resolves ops with
// the same map, so the router stays stateless — its only decisions
// are "which shards participate" (implied by the map) and "who
// coordinates".
func (r *Router) handleCommit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.ErrorOf(api.CodeBadRequest, "POST only"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, api.MaxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.ErrorOf(api.CodeBadRequest, "read body: %v", err))
		return
	}
	if len(body) > api.MaxBody {
		writeError(w, http.StatusBadRequest, api.ErrorOf(api.CodeBadRequest, "request body exceeds 1 MiB"))
		return
	}
	var creq api.CommitRequest
	if err := api.Unmarshal(body, &creq); err != nil {
		writeError(w, http.StatusBadRequest, api.ErrorOf(api.CodeBadRequest, "decode request: %v", err))
		return
	}
	if err := creq.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, api.ErrorOf(api.CodeBadRequest, "%v", err))
		return
	}

	smap := r.Map()
	first, _ := smap.FirstOwner(creq.Ops)
	participants, _ := smap.Resolve(creq.Ops)
	target := r.Coordinator(first, participants)
	baseURL, ok := r.MemberURL(target)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, api.ErrorOf(api.CodeUnknownShard,
			"no HTTP address known for shard %q", target))
		return
	}

	if c := r.loadOf(target); c != nil {
		c.Add(1)
		defer c.Add(-1)
	}
	fwd, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		strings.TrimRight(baseURL, "/")+api.PathCommit, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.ErrorOf(api.CodeInternal, "build forward: %v", err))
		return
	}
	fwd.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(fwd)
	if err != nil {
		writeError(w, http.StatusBadGateway, api.ErrorOf(api.CodeInternal,
			"forward to %s (%s): %v", target, baseURL, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The coordinator shed this commit: keep least-loaded picks away
		// from it for the window its Retry-After hint names.
		var retry time.Duration
		if secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err == nil && secs > 0 {
			retry = time.Duration(secs * float64(time.Second))
		}
		r.notePenalty(target, retry)
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set("X-Twopc-Coordinator", target)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
