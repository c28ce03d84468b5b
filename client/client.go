// Package client is the shard-aware Go client for the v1 transaction
// API: typed multi-key operations against a twopcd fleet, through a
// twopcrouter or — with WithShardRouting — routed client-side straight
// to the coordinating shard from a fetched /v1/shards map.
//
// The zero-config path talks to one endpoint:
//
//	c := client.New("http://127.0.0.1:8100", client.WithVariant("pa"))
//	resp, err := c.Commit(ctx, "", []twopc.Op{
//		client.Put("alice", "10"),
//		client.Put("bob", "20"),
//	})
//
// A transaction that runs and aborts is not an error: inspect
// resp.Outcome. Errors carry the server's machine-readable taxonomy as
// *client.APIError (400 bad_request, 422 unknown_shard, 503
// overloaded/draining).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/router"
)

// Op builders for readable call sites.

// Get reads key within the transaction.
func Get(key string) api.Op { return api.Op{Key: key, Op: api.OpGet} }

// Put writes key=value at commit.
func Put(key, value string) api.Op { return api.Op{Key: key, Op: api.OpPut, Value: value} }

// Del deletes key at commit.
func Del(key string) api.Op { return api.Op{Key: key, Op: api.OpDelete} }

// APIError is a non-2xx v1 response: the HTTP status plus the
// machine-readable taxonomy code and message from the body.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("twopc: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether retrying the same request can succeed
// (admission shed and drain are load conditions, not request defects).
func (e *APIError) Temporary() bool { return e.Status == http.StatusServiceUnavailable }

// Client issues v1 transactions. Safe for concurrent use.
type Client struct {
	baseURL string
	hc      *http.Client
	variant string
	timeout time.Duration
	retry   *clock.RetryPolicy
	route   bool

	mu      sync.Mutex
	smap    *router.ShardMap
	members map[string]string
	rng     *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithVariant sets the protocol variant requested for every
// transaction ("basic", "pa", "pn", "pc"); empty uses the daemon's
// default.
func WithVariant(v string) Option { return func(c *Client) { c.variant = v } }

// WithTimeout bounds each HTTP request. Default 30s.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithHTTPClient substitutes the transport (connection pools, test
// doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry retries shed (503) and transport-failed requests on the
// policy's jittered exponential backoff schedule — the same machinery
// the live runtime retransmits protocol messages with. Off by default:
// an open-loop load driver wants to count sheds, not mask them.
func WithRetry(p clock.RetryPolicy) Option { return func(c *Client) { c.retry = &p } }

// WithShardRouting fetches the fleet's /v1/shards map from the base
// endpoint and routes each transaction client-side to the owner of its
// first key — the first-shard coordinator choice without a router tier
// in the path.
func WithShardRouting() Option { return func(c *Client) { c.route = true } }

// New returns a client for the fleet behind baseURL (a daemon or a
// twopcrouter).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		timeout: 30 * time.Second,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Commit runs one transaction of typed ops. An empty tx lets the
// coordinator generate the id (returned in the response). The response
// reports the outcome — "aborted" is a result, not an error.
func (c *Client) Commit(ctx context.Context, tx string, ops []api.Op) (*api.CommitResponse, error) {
	return c.Do(ctx, api.CommitRequest{Tx: tx, Ops: ops})
}

// Do issues one fully-specified commit request. The client's
// variant option fills an unset variant.
func (c *Client) Do(ctx context.Context, req api.CommitRequest) (*api.CommitResponse, error) {
	if req.Variant == "" {
		req.Variant = c.variant
	}
	body := api.MarshalCommitRequest(&req)
	target, err := c.target(ctx, req.Ops)
	if err != nil {
		return nil, err
	}

	attempt := func() (*api.CommitResponse, error) {
		rctx, cancel := context.WithTimeout(ctx, c.timeout)
		defer cancel()
		hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, target+api.PathCommit, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := c.hc.Do(hreq)
		if err != nil {
			return nil, err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(hresp.Body, api.MaxBody))
			var e api.Error
			if json.Unmarshal(raw, &e) == nil && e.Code != "" {
				return nil, &APIError{Status: hresp.StatusCode, Code: e.Code, Message: e.Error}
			}
			return nil, &APIError{Status: hresp.StatusCode, Code: api.CodeInternal,
				Message: strings.TrimSpace(string(raw))}
		}
		var resp api.CommitResponse
		if err := api.DecodeBody(hresp.Body, &resp); err != nil {
			return nil, fmt.Errorf("%w: %w", errUndecodable, err)
		}
		return &resp, nil
	}

	resp, err := attempt()
	if err == nil || c.retry == nil {
		return resp, err
	}
	c.mu.Lock()
	bo := c.retry.Backoff(c.rng.Int63())
	c.mu.Unlock()
	for retryable(err) {
		d, ok := bo.Next()
		if !ok {
			break
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if resp, err = attempt(); err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// errUndecodable marks a 200 whose body did not decode, or did not
// arrive whole: the transaction ran, so it must not be sent again.
var errUndecodable = errors.New("twopc: decode response")

// retryable: transport failures and load sheds; taxonomy rejections
// (400/422) will fail identically again, and a 200 is never retried,
// whatever became of its body, since the transaction it answers ran.
func retryable(err error) bool {
	if errors.Is(err, errUndecodable) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// target resolves where this transaction's request goes: the base
// endpoint, or — under WithShardRouting — the first key's owning shard.
func (c *Client) target(ctx context.Context, ops []api.Op) (string, error) {
	if !c.route || len(ops) == 0 {
		return c.baseURL, nil
	}
	c.mu.Lock()
	smap, members := c.smap, c.members
	c.mu.Unlock()
	if smap == nil {
		if err := c.RefreshShards(ctx); err != nil {
			return "", err
		}
		c.mu.Lock()
		smap, members = c.smap, c.members
		c.mu.Unlock()
	}
	owner, _ := smap.FirstOwner(ops)
	if u, ok := members[owner]; ok {
		return strings.TrimRight(u, "/"), nil
	}
	return c.baseURL, nil
}

// Shards fetches the fleet view (shard map + member URLs) from the
// base endpoint.
func (c *Client) Shards(ctx context.Context) (*api.ShardsResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	return router.FetchShards(rctx, c.hc, c.baseURL)
}

// RefreshShards re-fetches and adopts the fleet view for client-side
// routing.
func (c *Client) RefreshShards(ctx context.Context) error {
	info, err := c.Shards(ctx)
	if err != nil {
		return err
	}
	smap, err := router.FromAPI(info.Map)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.smap = smap
	c.members = info.HTTP
	c.mu.Unlock()
	return nil
}
