package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// stageTransport is a daemon's own transport for /v1/stage, an
// http.RoundTripper that does all of a call's I/O on the caller's
// goroutine. net/http's Transport hands each call to a connection's
// write goroutine and back from its read goroutine; here the caller
// writes the request in one flush and reads the answer itself, so a
// pooled connection costs no goroutine at all, on the same principle
// as the log's forcers and the TCP transport's senders (DESIGN §9).
//
// Every admitted commit may stage on a peer at once, so each peer host
// keeps a stack of up to maxIdle idle connections. bound caps a whole
// call, dial included, as one deadline on its connection, so a call
// needs no deadline context of its own. The request is written with
// http.Request.Write and the answer read with http.ReadResponse, so the
// wire bytes and the response framing are net/http's. A request is
// never sent twice: a pooled connection the peer has closed is found
// before anything is written to it (closedByPeer) and replaced by a
// fresh dial. Only http URLs are served: the stage plane has no TLS.
type stageTransport struct {
	maxIdle int
	bound   time.Duration
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle map[string][]*stageConn // peer host:port -> idle connections, last in on top
}

func newStageTransport(maxIdle int, bound time.Duration) *stageTransport {
	return &stageTransport{
		maxIdle: maxIdle,
		bound:   bound,
		dial:    (&net.Dialer{Timeout: bound, KeepAlive: 30 * time.Second}).DialContext,
		idle:    make(map[string][]*stageConn),
	}
}

// stageConn is one connection to a peer with its buffers. raw, when
// the connection offers one, lets closedByPeer look at the socket
// without reading from it.
type stageConn struct {
	net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	raw syscall.RawConn
}

// aLongTimeAgo is a deadline in the past: setting it fails the
// connection's blocked and future reads and writes at once.
var aLongTimeAgo = time.Unix(1, 0)

// RoundTrip sends req and reads the answer's header on the caller's
// goroutine. The response body reads straight from the connection;
// closing it returns the connection to the pool if the body was read
// to its end and the peer keeps the connection alive, and closes it
// otherwise. A cancelled req.Context fails the call at once and the
// connection is never reused.
func (t *stageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("stage transport: unsupported scheme %q", req.URL.Scheme)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		closeBody(req)
		return nil, err
	}
	host := req.URL.Host
	if req.URL.Port() == "" {
		host = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	c, err := t.conn(ctx, host, time.Now().Add(t.bound))
	if err != nil {
		closeBody(req)
		return nil, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.SetDeadline(aLongTimeAgo) })
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		if stop != nil {
			stop()
		}
		c.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	resp.Body = &stageBody{ReadCloser: resp.Body, t: t, c: c, host: host, stop: stop,
		eof: resp.Body == http.NoBody, keep: !resp.Close}
	return resp, nil
}

// closeBody closes the body of a request that will not be sent, as
// RoundTrip must.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// roundTrip writes req in one flush and reads the answer's header.
func (c *stageConn) roundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Write(c.bw); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.br, req)
}

// conn takes host's most recently pooled connection the peer has not
// closed, or dials a new one, and sets deadline on it.
func (t *stageTransport) conn(ctx context.Context, host string, deadline time.Time) (*stageConn, error) {
	for {
		t.mu.Lock()
		stack := t.idle[host]
		if len(stack) == 0 {
			t.mu.Unlock()
			break
		}
		c := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		t.idle[host] = stack[:len(stack)-1]
		t.mu.Unlock()
		// The deadline goes on first: an expired one left from the
		// connection's last call would fail the peek.
		if c.SetDeadline(deadline) == nil && !c.closedByPeer() {
			return c, nil
		}
		c.Close()
	}
	nc, err := t.dial(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, err
	}
	c := &stageConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if sc, ok := nc.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn() // no raw connection: closedByPeer trusts it
	}
	return c, nil
}

// put pools c for host's next call, or closes it if the pool is full.
func (t *stageTransport) put(host string, c *stageConn) {
	t.mu.Lock()
	if len(t.idle[host]) < t.maxIdle {
		t.idle[host] = append(t.idle[host], c)
		c = nil
	}
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// CloseIdleConnections closes every pooled connection. Connections in
// use stay open, and pool again when their calls end.
func (t *stageTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*stageConn)
	t.mu.Unlock()
	for _, stack := range idle {
		for _, c := range stack {
			c.Close()
		}
	}
}

// idleConns counts the pooled connections to host.
func (t *stageTransport) idleConns(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle[host])
}

// stageBody is a stage answer's body as http.ReadResponse framed it,
// read on the caller's goroutine; Close decides its connection's fate.
type stageBody struct {
	io.ReadCloser
	t    *stageTransport
	c    *stageConn
	host string
	stop func() bool // disarms the context's cancel; nil if it has none
	eof  bool        // the body was read to its end
	keep bool        // the peer keeps the connection alive
}

func (b *stageBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close pools the connection if the body was read to its end, the peer
// keeps it alive and the call was not cancelled; otherwise it closes
// it. The body is not drained: a connection with unread answer bytes
// is not worth the wait.
func (b *stageBody) Close() error {
	if b.c == nil {
		return nil
	}
	c := b.c
	b.c = nil
	live := b.stop == nil || b.stop()
	if b.eof && b.keep && live {
		b.t.put(b.host, c)
		return nil
	}
	return c.Close()
}
