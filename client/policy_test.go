package client_test

import (
	"context"
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
