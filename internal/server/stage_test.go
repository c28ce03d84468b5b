package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/kvstore"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestStageLocalPutAllocs guards the local staging path: staging one
// put on a free key allocates no more than the same put on a store
// that never waits for a lock. The StageTimeout bound arms a timer
// only when a lock actually waits, so a granted lock costs no timer
// and no context.
func TestStageLocalPutAllocs(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := kvstore.New("ref", wal.New(wal.NewMemStore()), clock.NewWall())
	ctx := context.Background()
	ops := []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}
	id := protocol.ParseTxID("g:1")

	staged := testing.AllocsPerRun(200, func() {
		if _, err := s.stageLocal(ctx, "g:1", ops); err != nil {
			t.Fatal(err)
		}
		_ = s.store.Abort(id)
	})
	direct := testing.AllocsPerRun(200, func() {
		if err := ref.Put(ctx, id, "k", "v"); err != nil {
			t.Fatal(err)
		}
		_ = ref.Abort(id)
	})
	if staged > direct {
		t.Fatalf("staging a put on a free key allocates %.0f times, a non-waiting store's put %.0f", staged, direct)
	}
}

// TestStageLockWaitBoundPerSlice pins StageTimeout as the bound on one
// shard slice's lock waits, counted from the slice's first lock
// request, on both staging paths: the coordinator's own slice and the
// /v1/stage handler (409 conflict). In the second case of each, the
// slice's first op waits most of the bound before it is granted, and
// its second op then waits only for the time left; a bound per op
// would let the slice run to 450 ms + 600 ms.
func TestStageLockWaitBoundPerSlice(t *testing.T) {
	const bound = 600 * time.Millisecond
	s, err := New(Config{Name: "A", AuditInterval: -1, StageTimeout: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ops := []api.Op{{Key: "first", Op: api.OpPut, Value: "v"}, {Key: "second", Op: api.OpPut, Value: "v"}}

	local := func(tx string) error {
		_, err := s.stageLocal(ctx, tx, ops)
		if err == nil {
			return nil
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("local slice failed with %v, want a deadline error", err)
		}
		_ = s.store.Abort(protocol.ParseTxID(tx)) // as runV1 does for a failed slice
		return err
	}
	handler := func(tx string) error {
		body, err := json.Marshal(api.StageRequest{Tx: tx, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+s.HTTPAddr()+api.PathStage, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict || e.Code != "conflict" {
			t.Errorf("stage handler: status %d code %q, want 409 conflict", resp.StatusCode, e.Code)
		}
		return errors.New(e.Error)
	}

	for _, path := range []struct {
		name  string
		stage func(tx string) error
	}{{"local", local}, {"handler", handler}} {
		for _, firstHeld := range []time.Duration{0, 450 * time.Millisecond} {
			tx := fmt.Sprintf("%s-%d", path.name, firstHeld.Milliseconds())
			blockFirst, blockSecond := protocol.ParseTxID(tx+"-b1"), protocol.ParseTxID(tx+"-b2")
			if firstHeld > 0 {
				if err := s.store.Put(ctx, blockFirst, "first", "x"); err != nil {
					t.Fatal(err)
				}
				time.AfterFunc(firstHeld, func() { _ = s.store.Abort(blockFirst) })
			}
			if err := s.store.Put(ctx, blockSecond, "second", "x"); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err := path.stage(tx)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("%s: slice staged behind a held lock", tx)
			}
			if elapsed < bound || elapsed > bound+300*time.Millisecond {
				t.Errorf("%s: slice gave up after %v, want StageTimeout %v", tx, elapsed, bound)
			}
			_ = s.store.Abort(blockSecond)
			// The failed slice left no lock behind.
			if n := len(s.store.Locks().HeldKeys(protocol.ParseTxID(tx).String())); n != 0 {
				t.Errorf("%s: failed slice still holds %d locks", tx, n)
			}
		}
	}
}

// TestStageRemoteUnresponsivePeer pins the stage call's own bound: a
// peer that accepts the connection but never answers fails the stage
// after StageTimeout plus a second, with no deadline on the caller's
// context.
func TestStageRemoteUnresponsivePeer(t *testing.T) {
	const bound = 100 * time.Millisecond
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1, StageTimeout: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}()
	s.RegisterPeerHTTP("B", "http://"+ln.Addr().String())

	start := time.Now()
	_, err = s.stageRemote(context.Background(), "B", api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stage to a silent peer succeeded")
	}
	if elapsed < bound+time.Second || elapsed > bound+time.Second+500*time.Millisecond {
		t.Fatalf("stage to a silent peer failed after %v (%v), want StageTimeout+1s = %v", elapsed, err, bound+time.Second)
	}
}

// roundTripFunc is a RoundTripper double.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestStageRequestFromTemplate: a stage request is copied from its
// peer's template, so its URL is parsed once, at registration, and not
// on every call. Method, URL, header and body are what the wire always
// carried, and a re-registered address takes effect at the next call.
func TestStageRequestFromTemplate(t *testing.T) {
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://b.example:1/")
	var sent []*http.Request
	var bodies []string
	s.httpc.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		raw, _ := io.ReadAll(r.Body)
		sent, bodies = append(sent, r), append(bodies, string(raw))
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"tx":"t"}`))}, nil
	})
	sreq := api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k<&>", Op: api.OpPut, Value: "v\u2028"}}}
	want, err := json.Marshal(sreq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.stageRemote(context.Background(), "B", sreq); err != nil {
			t.Fatal(err)
		}
	}
	s.RegisterPeerHTTP("B", "http://b2.example:2")
	if _, err := s.stageRemote(context.Background(), "B", sreq); err != nil {
		t.Fatal(err)
	}

	if sent[0].URL != sent[1].URL {
		t.Error("each stage call parsed its URL anew")
	}
	for i, r := range sent {
		wantURL := "http://b.example:1" + api.PathStage
		if i == 2 {
			wantURL = "http://b2.example:2" + api.PathStage
		}
		if r.Method != http.MethodPost || r.URL.String() != wantURL || r.Host != r.URL.Host {
			t.Errorf("call %d: %s %s (host %q), want POST %s", i, r.Method, r.URL, r.Host, wantURL)
		}
		if len(r.Header) != 1 || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("call %d: header %v, want Content-Type alone", i, r.Header)
		}
		if bodies[i] != string(want) || r.ContentLength != int64(len(want)) {
			t.Errorf("call %d: body %q (length %d), want json.Marshal's %q", i, bodies[i], r.ContentLength, want)
		}
	}
}

// TestStageRemoteAllocs bounds a stage call's own allocations, with a
// transport double that answers from reused values: the encoded body,
// the template copy, its body (a bytes.Reader in io.NopCloser, see
// TestStageRequestOneWrite) and the decoded answer; the request has no
// rewind, since the stage transport never sends it twice.
// Parsing the URL and building a header map per call would take eleven
// more.
func TestStageRemoteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled buffers are not the program's own under the race detector")
	}
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://b.example:1")
	var (
		answer = []byte(`{"tx":"t"}`)
		body   bytes.Reader
		resp   = &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(&body)}
	)
	s.httpc.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) {
		body.Reset(answer)
		return resp, nil
	})
	sreq := api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.stageRemote(ctx, "B", sreq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a stage call allocates %.0f times, want ≤ 5", allocs)
	}
}

// TestStageRequestOneWrite: a stage request leaves in one write to its
// connection, header and body together, so the peer reads it in one
// part. The stage transport writes it into the connection's buffer and
// flushes once.
func TestStageRequestOneWrite(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{"tx":"t"}`)
	}))
	defer peer.Close()
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", peer.URL)
	var writes atomic.Int64
	tr := newStageTransport(1, 5*time.Second)
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &writeCounter{Conn: c, n: &writes}, nil
	}
	defer tr.CloseIdleConnections()
	s.httpc.Transport = tr
	sreq := api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}}
	for i := range 3 {
		before := writes.Load()
		if _, err := s.stageRemote(context.Background(), "B", sreq); err != nil {
			t.Fatal(err)
		}
		if n := writes.Load() - before; n != 1 {
			t.Fatalf("call %d: the stage request took %d writes, want 1", i, n)
		}
	}
}

// writeCounter counts the writes to a connection.
type writeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(b)
}
