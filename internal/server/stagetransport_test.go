package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

// newPair starts daemons A and B on "hash:A,B", B from cfgB with its
// name and shard map filled in, and wires them on both planes.
func newPair(t *testing.T, cfgA, cfgB Config) (a, b *Server) {
	t.Helper()
	var fleet [2]*Server
	for i, cfg := range []Config{cfgA, cfgB} {
		cfg.Name, cfg.ShardMap, cfg.AuditInterval = string(rune('A'+i)), "hash:A,B", -1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fleet[i] = s
	}
	a, b = fleet[0], fleet[1]
	for _, p := range [][2]*Server{{a, b}, {b, a}} {
		p[0].RegisterPeer(p[1].cfg.Name, p[1].ProtoAddr())
		p[0].RegisterPeerHTTP(p[1].cfg.Name, "http://"+p[1].HTTPAddr())
	}
	return a, b
}

// ownedKeys returns n keys the shard map spec gives to owner.
func ownedKeys(t *testing.T, spec, owner string, n int) []string {
	t.Helper()
	smap, err := router.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("k%d", i); smap.Owner(k) == owner {
			out = append(out, k)
		}
	}
	return out
}

// stageTransportOf is s's stage transport, its dials counted from now
// on.
func stageTransportOf(s *Server) (*stageTransport, *atomic.Int64) {
	tr := s.httpc.Transport.(*stageTransport)
	var dials atomic.Int64
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}
	return tr, &dials
}

// rawPeer serves every connection to a loopback listener with serve
// on a goroutine of its own, and closes the listener and the
// connections when the test ends.
func rawPeer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// okStageReply is a complete 200 answer to a stage call.
const okStageReply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"tx\":\"t\"}\n"

var putK = api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}}

// TestStageConnectionsReused fires two bursts of concurrent cross-shard
// commits through one daemon and counts the TCP connections its
// /v1/stage client dials to the peer. The first burst is held until
// every stage is in flight at once, so it opens one connection per
// commit; all of them must stay pooled, and the second burst must dial
// nothing new. A pooled connection holds no goroutine on the caller's
// side: the process gains one goroutine per pooled connection, the
// peer's, where net/http's Transport would add two more.
func TestStageConnectionsReused(t *testing.T) {
	const burst = 8
	const spec = "hash:A,B"
	a, b := newPair(t, Config{MaxInflight: 2 * burst}, Config{})
	tr, dials := stageTransportOf(a)
	hc := &http.Client{Transport: &http.Transport{}}
	aKeys, bKeys := ownedKeys(t, spec, "A", 2*burst), ownedKeys(t, spec, "B", 2*burst+1)
	hot := bKeys[2*burst] // the first burst queues on it at B
	goroutines := runtime.NumGoroutine()

	post := func(addr, path, body string) int {
		resp, err := hc.Post("http://"+addr+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	fire := func(round int, keyB func(i int) string) {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := commitJSON(t, api.CommitRequest{Ops: []api.Op{
					{Key: aKeys[round*burst+i], Op: api.OpPut, Value: "v"},
					{Key: keyB(i), Op: api.OpPut, Value: "v"},
				}})
				if code := post(a.HTTPAddr(), api.PathCommit, body); code != http.StatusOK {
					t.Errorf("round %d commit %d: status %d", round, i, code)
				}
			}(i)
		}
		wg.Wait()
	}
	stage := func(body string) {
		if code := post(b.HTTPAddr(), api.PathStage, body); code != http.StatusOK {
			t.Fatalf("stage %s: status %d", body, code)
		}
	}

	// Burst one: a blocker holds the hot key at B, so every commit's
	// stage waits there with its connection open until all are queued.
	stage(fmt.Sprintf(`{"tx":"blocker","ops":[{"key":%q,"op":"put","value":"x"}]}`, hot))
	done := make(chan struct{})
	go func() {
		defer close(done)
		fire(0, func(int) string { return hot })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Store().Locks().WaiterCount(hot) < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d stages queued at B", b.Store().Locks().WaiterCount(hot), burst)
		}
		time.Sleep(time.Millisecond)
	}
	stage(`{"tx":"blocker","abort":true}`)
	<-done
	first := dials.Load()
	if first < burst {
		t.Fatalf("first burst dialed %d connections for %d overlapping stages", first, burst)
	}

	fire(1, func(i int) string { return bKeys[i] })
	if extra := dials.Load() - first; extra != 0 {
		t.Fatalf("second burst dialed %d new stage connections; the first burst's %d were not kept idle", extra, first)
	}

	hc.CloseIdleConnections()
	pooled := tr.idleConns(b.HTTPAddr())
	if pooled < burst {
		t.Fatalf("%d stage connections pooled after %d overlapping stages", pooled, burst)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		grown := runtime.NumGoroutine() - goroutines
		if grown <= pooled+pooled/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines more with %d stage connections pooled, want at most %d", grown, pooled, pooled+pooled/2)
		}
	}
}

// TestStageTransportRedialsClosedConn: the peer closes its idle
// connections, and the next commit still commits. The pooled
// connection is found closed before anything is written to it, and one
// fresh connection replaces it.
func TestStageTransportRedialsClosedConn(t *testing.T) {
	a, b := newPair(t, Config{}, Config{})
	tr, dials := stageTransportOf(a)
	aKeys, bKeys := ownedKeys(t, "hash:A,B", "A", 2), ownedKeys(t, "hash:A,B", "B", 2)
	commit := func(i int) {
		t.Helper()
		code, resp, apiErr := postV1(t, a, commitJSON(t, api.CommitRequest{Ops: []api.Op{
			{Key: aKeys[i], Op: api.OpPut, Value: "v"},
			{Key: bKeys[i], Op: api.OpPut, Value: "v"},
		}}))
		if code != http.StatusOK || resp.Outcome != "committed" {
			t.Fatalf("commit %d: status %d, %+v, %+v", i, code, resp, apiErr)
		}
	}
	commit(0)
	if n := tr.idleConns(b.HTTPAddr()); dials.Load() != 1 || n != 1 {
		t.Fatalf("after one commit: %d dials, %d pooled, want 1 and 1", dials.Load(), n)
	}

	b.httpSrv.SetKeepAlivesEnabled(false) // closes B's idle connections
	tr.mu.Lock()
	pooled := tr.idle[b.HTTPAddr()][0]
	tr.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); !pooled.closedByPeer(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Skip("no peek on this platform sees the peer's close")
		}
	}
	b.httpSrv.SetKeepAlivesEnabled(true)

	commit(1)
	if n := tr.idleConns(b.HTTPAddr()); dials.Load() != 2 || n != 1 {
		t.Fatalf("after the peer closed: %d dials, %d pooled, want 2 and 1", dials.Load(), n)
	}
}

// readCounter keeps the bytes read from a connection.
type readCounter struct {
	net.Conn
	got *bytes.Buffer
}

func (c *readCounter) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.got.Write(b[:n])
	return n, err
}

// TestStageTransportChunkedReply: a stage reply too long for the peer
// to give it a Content-Length arrives chunked, decodes whole, and its
// connection is used again.
func TestStageTransportChunkedReply(t *testing.T) {
	a, b := newPair(t, Config{}, Config{})
	const n = 16
	keys := ownedKeys(t, "hash:A,B", "B", n)
	var puts, gets []api.Op
	for _, k := range keys {
		puts = append(puts, api.Op{Key: k, Op: api.OpPut, Value: strings.Repeat(k, 200/len(k))})
		gets = append(gets, api.Op{Key: k, Op: api.OpGet})
	}
	if code, resp, apiErr := postV1(t, b, commitJSON(t, api.CommitRequest{Ops: puts})); code != http.StatusOK || resp.Outcome != "committed" {
		t.Fatalf("seeding B: status %d, %+v, %+v", code, resp, apiErr)
	}

	tr := a.httpc.Transport.(*stageTransport)
	var got bytes.Buffer
	var dials int
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials++
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &readCounter{Conn: c, got: &got}, nil
	}
	sresp, err := a.stageRemote(context.Background(), "B", api.StageRequest{Tx: "r", Ops: gets})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "Transfer-Encoding: chunked") {
		t.Fatalf("a %d-byte reply came without chunking:\n%.300s", got.Len(), got.String())
	}
	for _, op := range puts {
		if sresp.Reads[op.Key] != op.Value {
			t.Fatalf("read %s = %q, want %q", op.Key, sresp.Reads[op.Key], op.Value)
		}
	}
	if _, err := a.stageRemote(context.Background(), "B", api.StageRequest{Tx: "r", Abort: true}); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Fatalf("%d dials for a chunked reply and the call after it, want 1", dials)
	}
}

// TestStageTransportCancelMidCall: cancelling the caller's context
// while the peer has not answered fails the call at once with the
// context's error, and the connection is closed, not pooled.
func TestStageTransportCancelMidCall(t *testing.T) {
	got, closed := make(chan struct{}), make(chan struct{})
	addr := rawPeer(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		close(got)
		_, _ = br.ReadByte() // returns once the caller closes
		close(closed)
	})
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://"+addr)

	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	go func() {
		<-got
		cancelled = time.Now()
		cancel()
	}()
	_, err = s.stageRemote(ctx, "B", putK)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stage returned %v, want context.Canceled", err)
	}
	if d := returned.Sub(cancelled); d > 100*time.Millisecond {
		t.Fatalf("cancelled stage returned %v after the cancel", d)
	}
	if n := s.httpc.Transport.(*stageTransport).idleConns(addr); n != 0 {
		t.Fatalf("%d connections pooled after a cancelled call", n)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled call's connection was not closed")
	}
}

// TestStageTransportRefusalReusesConn: a 409 reply's body is read to
// its end, and its connection carries the next call.
func TestStageTransportRefusalReusesConn(t *testing.T) {
	a, b := newPair(t, Config{}, Config{StageTimeout: 50 * time.Millisecond})
	tr, dials := stageTransportOf(a)
	keys := ownedKeys(t, "hash:A,B", "B", 2)
	resp, err := http.Post("http://"+b.HTTPAddr()+api.PathStage, "application/json",
		strings.NewReader(fmt.Sprintf(`{"tx":"blocker","ops":[{"key":%q,"op":"put","value":"x"}]}`, keys[0])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, err = a.stageRemote(context.Background(), "B", api.StageRequest{Tx: "t1", Ops: []api.Op{{Key: keys[0], Op: api.OpPut, Value: "v"}}})
	if !errors.As(err, new(*stageRefusal)) || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("stage on a held key: %v, want a 409 refusal", err)
	}
	if n := tr.idleConns(b.HTTPAddr()); n != 1 {
		t.Fatalf("%d connections pooled after a 409, want 1", n)
	}
	for _, sreq := range []api.StageRequest{
		{Tx: "t2", Ops: []api.Op{{Key: keys[1], Op: api.OpPut, Value: "v"}}},
		{Tx: "t2", Abort: true},
		{Tx: "blocker", Abort: true},
	} {
		if _, err := a.stageRemote(context.Background(), "B", sreq); err != nil {
			t.Fatal(err)
		}
	}
	if dials.Load() != 1 {
		t.Fatalf("%d dials for a 409 and three calls after it, want 1", dials.Load())
	}
}

// TestStageTransportWireGolden: the bytes of one stage request are the
// ones net/http's Transport sent with compression off: request line,
// Host, User-Agent, Content-Length, Content-Type and the body.
func TestStageTransportWireGolden(t *testing.T) {
	wire := make(chan string, 1)
	addr := rawPeer(t, func(c net.Conn) {
		var raw bytes.Buffer
		br := bufio.NewReader(io.TeeReader(c, &raw))
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, req.Body)
		wire <- raw.String()
		_, _ = io.WriteString(c, okStageReply)
	})
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://"+addr)
	if _, err := s.stageRemote(context.Background(), "B", putK); err != nil {
		t.Fatal(err)
	}
	body := `{"tx":"t","ops":[{"key":"k","op":"put","value":"v"}]}`
	want := "POST /v1/stage HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"User-Agent: Go-http-client/1.1\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n" +
		"Content-Type: application/json\r\n" +
		"\r\n" + body
	if got := <-wire; got != want {
		t.Fatalf("stage request on the wire:\n%q\nwant\n%q", got, want)
	}
}

// TestStageRequestNeverResent: a stage POST is sent once. The peer
// reads a second request on a pooled connection and closes it without
// an answer; the call fails, and no copy of the request follows on
// that connection or a new one.
func TestStageRequestNeverResent(t *testing.T) {
	var conns, requests atomic.Int64
	addr := rawPeer(t, func(c net.Conn) {
		conns.Add(1)
		br := bufio.NewReader(c)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, req.Body)
			if requests.Add(1) > 1 {
				c.Close()
				return
			}
			_, _ = io.WriteString(c, okStageReply)
		}
	})
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://"+addr)
	if _, err := s.stageRemote(context.Background(), "B", putK); err != nil {
		t.Fatal(err)
	}
	if _, err := s.stageRemote(context.Background(), "B", putK); err == nil {
		t.Fatal("a stage the peer dropped unanswered succeeded")
	}
	if conns.Load() != 1 || requests.Load() != 2 {
		t.Fatalf("the peer saw %d requests on %d connections, want 2 on 1", requests.Load(), conns.Load())
	}
}

// TestStageRoundTripAllocs bounds the caller's allocations for one
// whole stage call over loopback on a pooled connection, with a
// cancellable context as a /v1/commit handler passes: the request and
// its body, the parsed answer and its header, the body wrapper, the
// context hook and the decoded answer. The peer answers from fixed
// buffers, so every allocation counted is the caller's.
func TestStageRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled buffers are not the program's own under the race detector")
	}
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var size int // of every request below; set before the first is sent
	reply := []byte(okStageReply)
	addr := rawPeer(t, func(c net.Conn) {
		var buf [4096]byte
		read := 0
		for {
			n, err := c.Read(buf[:])
			if err != nil {
				return
			}
			for read += n; read >= size; read -= size {
				if _, err := c.Write(reply); err != nil {
					return
				}
			}
		}
	})
	s.RegisterPeerHTTP("B", "http://"+addr)
	peer, _ := s.peerHTTPOf("B")
	req, err := peer.stageRequest(context.Background(), api.MarshalStageRequest(&putK))
	if err != nil {
		t.Fatal(err)
	}
	var probe bytes.Buffer
	if err := req.Write(&probe); err != nil {
		t.Fatal(err)
	}
	size = probe.Len()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.stageRemote(ctx, "B", putK); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 28 {
		t.Fatalf("a stage round trip allocates %.0f times on the caller's side, want ≤ 28", allocs)
	}
}
