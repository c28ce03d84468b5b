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
// are dialed lazily per destination and reused; each has a dedicated
// writer goroutine, so senders only enqueue — encoding happens outside
// any caller-visible critical section, and frames queued while a write
// syscall was in flight are flushed together in one syscall.
type TCPEndpoint struct {
	name string
	ln   net.Listener
	in   chan protocol.Packet

	mu       sync.Mutex
	peers    map[string]string // name -> address
	conns    map[string]*tcpConn
	accepted map[net.Conn]struct{} // inbound connections, closed on shutdown
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup // per-connection reader and writer goroutines
}

// tcpConn is one cached outbound connection. Senders enqueue packets
// on q; the connection's writer goroutine owns the codec and the
// socket, encoding and writing with no lock held. dead is closed when
// the writer exits (write failure or endpoint shutdown) — a sender
// that observes it drops the connection from the cache and redials.
type tcpConn struct {
	conn net.Conn
	q    chan protocol.Packet
	dead chan struct{}
}

// maxFrame bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrame = 16 << 20

// maxWriteBatch caps how many bytes of queued frames one writer-loop
// iteration coalesces into a single Write.
const maxWriteBatch = 256 << 10

// sendQueueDepth is the per-connection outbound queue. A full queue
// applies backpressure (Send blocks) rather than dropping.
const sendQueueDepth = 256

// errCondemned stands in for the write error observed by whichever
// send condemned a cached connection first.
var errCondemned = errors.New("netsim: cached connection condemned by concurrent send failure")

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

// Send implements Endpoint: it enqueues the packet on a cached per-peer
// connection's writer, dialing on first use and redialing once if the
// cached connection has died (the peer restarted, or a concurrent send
// hit a write error). The writer goroutine encodes and writes
// asynchronously; a failure there condemns the connection, and the
// queued packets are lost exactly like packets on the wire — the
// commit protocol's retries and recovery take over. A second enqueue
// failure is surfaced to the caller.
//
// Send takes ownership of pkt.Messages: once enqueued, the backing
// array may be recycled through the codec's message pool, so callers
// must not reuse it.
func (e *TCPEndpoint) Send(to string, pkt protocol.Packet) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	for attempt := 0; attempt < 2; attempt++ {
		c, err := e.conn(to)
		if err != nil {
			return err
		}
		select {
		case c.q <- pkt:
			return nil
		case <-c.dead:
			e.dropConn(to, c)
		case <-e.done:
			return ErrClosed
		}
	}
	return fmt.Errorf("netsim: send to %s: %w", to, errCondemned)
}

// writeLoop drains one connection's queue: the first packet is taken
// blocking, then every packet already queued is coalesced into the
// same buffer (up to maxWriteBatch) and the whole batch goes out in
// one Write. Under per-packet load this degenerates to one frame per
// syscall; under concurrent senders it is the wire-level analog of
// group commit.
func (e *TCPEndpoint) writeLoop(c *tcpConn) {
	defer e.wg.Done()
	defer close(c.dead)
	defer c.conn.Close()
	codec := protocol.NewBinaryCodec()
	bufp := protocol.FrameBufPool.Get().(*[]byte)
	defer protocol.PutFrameBuf(bufp)
	for {
		var pkt protocol.Packet
		select {
		case pkt = <-c.q:
		case <-e.done:
			return
		}
		buf, err := codec.AppendFrame((*bufp)[:0], pkt)
		if err != nil {
			return
		}
		// Send hands over ownership of pkt.Messages, so once a packet
		// is on the wire its backing array goes back to the codec pool.
		protocol.PutMsgSlice(pkt.Messages)
		// Batch whatever queued while we were encoding or writing.
	drain:
		for len(buf) < maxWriteBatch {
			select {
			case pkt = <-c.q:
				if buf, err = codec.AppendFrame(buf, pkt); err != nil {
					return
				}
				protocol.PutMsgSlice(pkt.Messages)
			default:
				break drain
			}
		}
		*bufp = buf[:0] // keep the grown capacity for the next iteration
		if _, err := c.conn.Write(buf); err != nil {
			return
		}
	}
}

// conn returns the cached connection for to, dialing (and starting its
// writer) if absent.
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
	c := &tcpConn{conn: nc, q: make(chan protocol.Packet, sendQueueDepth), dead: make(chan struct{})}
	e.mu.Lock()
	if cur, ok := e.conns[to]; ok {
		// Lost a dial race; keep the established one.
		e.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	e.conns[to] = c
	select {
	case <-e.done:
		// Closed while dialing: don't start a writer on a dead endpoint.
		e.mu.Unlock()
		nc.Close()
		close(c.dead)
		return c, nil
	default:
	}
	e.wg.Add(1)
	e.mu.Unlock()
	go e.writeLoop(c)
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
