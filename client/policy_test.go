package client_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
)

// TestRetryPolicyNamedByClient: a program outside the module names the
// retry policy through package client alone, without the façade and
// the runtimes it links.
func TestRetryPolicyNamedByClient(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := client.New(srv.URL, client.WithRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if _, err := c.Commit(context.Background(), "C:1", nil); err == nil {
		t.Fatal("every attempt shed, yet the commit succeeded")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want the policy's 3", got)
	}
}

// TestOpsNamedByClient: a program outside the module builds a
// transaction's ops and reads its response through package client's
// own names.
func TestOpsNamedByClient(t *testing.T) {
	var got client.CommitRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		_ = json.NewEncoder(w).Encode(client.CommitResponse{Tx: got.Tx, Outcome: "committed"})
	}))
	defer srv.Close()
	ops := []client.Op{client.Put("k", "v"), client.Get("k"), client.Del("j")}
	var resp *client.CommitResponse
	resp, err := client.New(srv.URL).Commit(context.Background(), "C:1", ops)
	if err != nil || resp.Outcome != "committed" || resp.Tx != "C:1" {
		t.Fatalf("commit = %+v, %v", resp, err)
	}
	if len(got.Ops) != 3 || got.Ops[0] != client.Put("k", "v") || got.Ops[2] != client.Del("j") {
		t.Fatalf("the server got ops %+v", got.Ops)
	}
}
