package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
)

// fastRetry is a millisecond-scale policy so the retry tests finish
// instantly while still walking the real backoff schedule.
func fastRetry() clock.RetryPolicy {
	return clock.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// TestBackoffJitterBounds pins the schedule the client retries on:
// each delay is the nominal exponential step shrunk by at most the
// jitter fraction (never grown — a grown delay could outlive the
// caller's deadline), capped at MaxDelay, and the schedule ends after
// MaxAttempts-1 retries.
func TestBackoffJitterBounds(t *testing.T) {
	p := clock.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.25,
	}
	for seed := int64(0); seed < 100; seed++ {
		bo := p.Backoff(seed)
		nominal := float64(p.BaseDelay)
		steps := 0
		for {
			d, ok := bo.Next()
			if !ok {
				break
			}
			steps++
			capped := nominal
			if capped > float64(p.MaxDelay) {
				capped = float64(p.MaxDelay)
			}
			lo := time.Duration((1 - p.Jitter) * capped)
			hi := time.Duration(capped)
			if d < lo || d > hi {
				t.Fatalf("seed %d step %d: delay %v outside [%v, %v]", seed, steps, d, lo, hi)
			}
			nominal *= p.Multiplier
		}
		if want := p.MaxAttempts - 1; steps != want {
			t.Fatalf("seed %d: schedule allowed %d retries, want %d", seed, steps, want)
		}
	}
}

// commitServer fakes the v1 endpoint: the first shed responses are
// 503s, then every request commits.
func commitServer(t *testing.T, sheds int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathCommit {
			t.Errorf("unexpected path %s", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		n := hits.Add(1)
		if n <= int64(sheds) {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorOf(api.CodeOverloaded, "admission limit reached"))
			return
		}
		var req api.CommitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request body: %v", err)
		}
		json.NewEncoder(w).Encode(api.CommitResponse{Tx: req.Tx, Outcome: "committed"})
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestRetryAfter503 exercises the shed-retry loop: two 503s, then a
// commit. The client must come back exactly twice and surface the
// eventual success.
func TestRetryAfter503(t *testing.T) {
	srv, hits := commitServer(t, 2)
	c := New(srv.URL, WithRetry(fastRetry()))
	resp, err := c.Commit(context.Background(), "C:1", []api.Op{Put("k", "v")})
	if err != nil {
		t.Fatalf("commit after sheds: %v", err)
	}
	if resp.Outcome != "committed" || resp.Tx != "C:1" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two sheds + success)", got)
	}
}

// TestRetryExhaustion: when every attempt sheds, the schedule runs dry
// and the last 503 comes back typed and Temporary.
func TestRetryExhaustion(t *testing.T) {
	srv, hits := commitServer(t, 1000)
	c := New(srv.URL, WithRetry(fastRetry()))
	_, err := c.Commit(context.Background(), "C:1", []api.Op{Put("k", "v")})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeOverloaded {
		t.Fatalf("err = %+v", apiErr)
	}
	if !apiErr.Temporary() {
		t.Fatal("a 503 must report Temporary")
	}
	if got := hits.Load(); got != int64(fastRetry().MaxAttempts) {
		t.Fatalf("server saw %d requests, want %d (the full schedule)", got, fastRetry().MaxAttempts)
	}
}

// TestNoRetryOn4xx: taxonomy rejections fail identically on every
// attempt, so the client must not burn the schedule on them.
func TestNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorOf(api.CodeBadRequest, "unknown variant"))
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(fastRetry()))
	_, err := c.Commit(context.Background(), "C:1", []api.Op{Put("k", "v")})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("err = %+v", apiErr)
	}
	if apiErr.Temporary() {
		t.Fatal("a 400 must not report Temporary")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries on a request defect)", got)
	}
}

// TestNoRetryOnUndecodable200: a 200 means the transaction ran, so a
// body that does not decode, or is over the size limit, is reported
// and never answered by sending the request again — an empty tx would
// commit a second transaction under a fresh id.
func TestNoRetryOnUndecodable200(t *testing.T) {
	for name, body := range map[string]string{
		"broken":    `{"tx":"C:1","outcome":`,
		"oversized": `{"tx":"` + strings.Repeat("a", api.MaxBody) + `"}`,
	} {
		t.Run(name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				io.WriteString(w, body)
			}))
			defer srv.Close()
			c := New(srv.URL, WithRetry(fastRetry()))
			if _, err := c.Commit(context.Background(), "", []api.Op{Put("k", "v")}); err == nil ||
				!strings.Contains(err.Error(), "decode response") {
				t.Fatalf("err = %v, want a decode error", err)
			}
			if got := hits.Load(); got != 1 {
				t.Fatalf("server saw %d requests, want 1 (a 200 is never retried)", got)
			}
		})
	}
}

// roundTripFunc is a RoundTripper double.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestCommitBodies: the request carries GetBody, so a transport can
// re-send it on a fresh connection; a response over the 1 MiB body
// limit is reported as such rather than truncated into broken JSON.
func TestCommitBodies(t *testing.T) {
	huge := `{"tx":"` + strings.Repeat("a", api.MaxBody) + `"}`
	respond := `{"tx":"C:1","outcome":"committed"}`
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		sent, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.GetBody == nil {
			t.Fatal("commit request has no GetBody")
		}
		again, err := r.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		if resent, _ := io.ReadAll(again); len(sent) == 0 || string(resent) != string(sent) {
			t.Fatalf("GetBody returned %q after sending %q", resent, sent)
		}
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(respond))}, nil
	})}
	c := New("http://daemon.example", WithHTTPClient(hc))
	resp, err := c.Commit(context.Background(), "C:1", []api.Op{Put("k", "v")})
	if err != nil || resp.Outcome != "committed" {
		t.Fatalf("commit: resp %+v err %v", resp, err)
	}
	respond = huge
	if _, err := c.Commit(context.Background(), "C:1", []api.Op{Put("k", "v")}); !errors.Is(err, api.ErrBodyTooLarge) {
		t.Fatalf("oversized response: err %v, want ErrBodyTooLarge", err)
	}
}

// TestCommitRequestBodyAsMarshal: the request body is json.Marshal's
// bytes for the request, the client's variant filled in.
func TestCommitRequestBodyAsMarshal(t *testing.T) {
	var sent []byte
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		sent, _ = io.ReadAll(r.Body)
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"tx":"C:1","outcome":"committed"}`))}, nil
	})}
	c := New("http://daemon.example", WithHTTPClient(hc), WithVariant("pa"))
	ops := []api.Op{Put("<k>", "a&b\u2028"), Get("g"), Del("d")}
	if _, err := c.Commit(context.Background(), "C:1", ops); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(api.CommitRequest{Tx: "C:1", Variant: "pa", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if string(sent) != string(want) {
		t.Fatalf("sent %s, json.Marshal writes %s", sent, want)
	}
}
