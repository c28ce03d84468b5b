package netsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/protocol"
)

// TCPEndpoint is an Endpoint backed by a real TCP listener. Packets
// are length-prefixed protocol.BinaryCodec frames; the version byte
// that opens every frame payload is the format guard, so a peer
// speaking anything else is condemned at its first frame. Connections
// are dialed lazily per destination and reused. The sender writes: a
// Send encodes its frame into the connection's pending buffer and, if
// no write is in flight, writes it itself; frames encoded while a
// write was in flight go out together in the next one, on the writing
// sender's goroutine. No goroutine exists only to write.
type TCPEndpoint struct {
	name  string
	ln    net.Listener
	in    chan protocol.Packet
	codec *protocol.BinaryCodec // encodes; AppendFrame keeps no state

	mu       sync.Mutex
	peers    map[string]string // name -> address
	conns    map[string]*tcpConn
	accepted map[net.Conn]struct{} // inbound connections, closed on shutdown
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup // per-connection reader goroutines
}

// tcpConn is one cached outbound connection. Frames are encoded into
// pending under mu and written in FIFO order by whichever sender found
// no write in flight. dead is set when a write fails or the endpoint
// closes: a sender that observes it drops the connection from the
// cache and redials.
type tcpConn struct {
	conn net.Conn

	mu      sync.Mutex
	taken   sync.Cond // broadcast when a write takes pending, or the connection dies
	pending []byte    // frames encoded but not yet handed to a write
	spare   []byte    // the last write's buffer, emptied, for pending to reuse
	writing bool
	dead    bool
}

// maxFrame bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrame = 16 << 20

// maxPending bounds the bytes senders may encode ahead of a write in
// flight; past it a Send waits for the write to take them, so a peer
// that stops reading applies backpressure instead of growing memory.
const maxPending = 256 << 10

// errCondemned stands in for the write error observed by whichever
// send condemned a cached connection first.
var errCondemned = errors.New("netsim: cached connection condemned by a failed write")

// ListenTCP starts an endpoint named name on addr (e.g.
// "127.0.0.1:0"). The OS-assigned address is available from Addr.
func ListenTCP(name, addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		name:     name,
		ln:       ln,
		in:       make(chan protocol.Packet, 256),
		peers:    make(map[string]string),
		conns:    make(map[string]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
		codec:    protocol.NewBinaryCodec(),
	}
	go e.acceptLoop()
	return e, nil
}

// Addr returns the listening address to register with peers.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Register tells the endpoint where to dial for a peer name.
func (e *TCPEndpoint) Register(name, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[name] = addr
}

// Name implements Endpoint.
func (e *TCPEndpoint) Name() string { return e.name }

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() <-chan protocol.Packet { return e.in }

func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		select {
		case <-e.done:
			e.mu.Unlock()
			conn.Close()
			return
		default:
		}
		e.accepted[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(conn)
	}
}

// readBufSize sizes the per-connection read buffer: large enough that
// a coalesced write batch needs few syscalls to drain.
const readBufSize = 64 << 10

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.accepted, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	codec := protocol.NewBinaryCodec()
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(hdr[:])
		if length > maxFrame {
			return
		}
		if uint32(cap(buf)) < length {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		pkt, err := codec.DecodeFrame(buf)
		if err != nil {
			return // a corrupt frame leaves no trustworthy boundary; drop the connection
		}
		select {
		case e.in <- pkt:
		case <-e.done:
			return
		}
	}
}

// Send implements Endpoint: it encodes the packet onto a cached
// per-peer connection, dialing on first use, and writes it unless a
// write is already in flight there, in which case that write's sender
// carries the frame and Send returns at once. Send may therefore block
// until the kernel takes the frame (and every frame queued behind it).
// A failed write condemns the connection: frames it carried for other
// senders are lost exactly like packets on the wire, and the commit
// protocol's retries and recovery take over; the sender's own frame is
// written once more on a redialed connection. A second failure is
// surfaced to the caller.
//
// Send takes ownership of pkt.Messages: once encoded, the backing
// array is recycled through the codec's message pool, so callers must
// not reuse it.
func (e *TCPEndpoint) Send(to string, pkt protocol.Packet) error {
	var frame []byte // the encoded packet, once a failed write hands it back
	for attempt := 0; attempt < 2; attempt++ {
		select {
		case <-e.done:
			return ErrClosed
		default:
		}
		c, err := e.conn(to)
		if err != nil {
			return err
		}
		if frame, err = e.send(c, pkt, frame); !errors.Is(err, errCondemned) {
			return err
		}
		e.dropConn(to, c)
	}
	return fmt.Errorf("netsim: send to %s: %w", to, errCondemned)
}

// send appends pkt's frame — or frame, when an earlier attempt encoded
// it — to c's pending buffer, and writes unless a write is in flight,
// writing until pending is empty. It returns errCondemned when c is
// dead, with the frame to resend if it was encoded but never written.
func (e *TCPEndpoint) send(c *tcpConn, pkt protocol.Packet, frame []byte) ([]byte, error) {
	c.mu.Lock()
	for c.writing && len(c.pending) >= maxPending && !c.dead {
		c.taken.Wait()
	}
	if c.dead {
		c.mu.Unlock()
		return frame, errCondemned
	}
	if frame != nil {
		c.pending = append(c.pending, frame...)
	} else {
		buf, err := e.codec.AppendFrame(c.pending, pkt)
		c.pending = buf
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		protocol.PutMsgSlice(pkt.Messages)
	}
	if c.writing {
		c.mu.Unlock()
		return nil, nil
	}
	// No write in flight means pending held nothing before this frame,
	// so the first write carries only the caller's own frame.
	c.writing = true
	for first := true; len(c.pending) > 0; first = false {
		out := c.pending
		c.pending, c.spare = c.spare, nil
		c.taken.Broadcast()
		c.mu.Unlock()
		_, err := c.conn.Write(out)
		c.mu.Lock()
		if err != nil {
			c.dead, c.writing, c.pending = true, false, nil
			c.taken.Broadcast()
			c.mu.Unlock()
			c.conn.Close()
			if first {
				return out, errCondemned
			}
			return nil, nil
		}
		if cap(out) <= protocol.MaxPooledFrameBuf {
			c.spare = out[:0]
		}
	}
	c.writing = false
	c.mu.Unlock()
	return nil, nil
}

// conn returns the cached connection for to, dialing if absent.
func (e *TCPEndpoint) conn(to string) (*tcpConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	addr, ok := e.peers[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, to)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s (%s): %w", to, addr, err)
	}
	c := &tcpConn{conn: nc}
	c.taken.L = &c.mu
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.conns[to]; ok {
		// Lost a dial race; keep the established one.
		nc.Close()
		return cur, nil
	}
	select {
	case <-e.done:
		// Closed while dialing: hand back a dead connection.
		nc.Close()
		c.dead = true
	default:
		e.conns[to] = c
	}
	return c, nil
}

// dropConn removes c from the cache if it is still the cached entry.
func (e *TCPEndpoint) dropConn(to string, c *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.conns[to]; ok && cur == c {
		delete(e.conns, to)
	}
}

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		e.ln.Close()
		e.mu.Lock()
		for _, c := range e.conns {
			c.conn.Close()
		}
		for c := range e.accepted {
			c.Close()
		}
		e.mu.Unlock()
		e.wg.Wait()
		close(e.in)
	})
	return nil
}
