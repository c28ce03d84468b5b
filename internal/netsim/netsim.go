// Package netsim provides live (non-simulated) transports for the
// commit protocol's wire packets: an in-process channel network with
// injectable latency, loss, and partitions, and a real TCP network
// using length-prefixed protocol.BinaryCodec frames. The deterministic
// simulator in internal/core has its own delivery machinery; these
// transports back the live examples (examples/netcommit) and
// demonstrate that the protocol vocabulary runs over a real network
// stack.
package netsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/protocol"
)

// ErrClosed is returned when sending through a closed endpoint or to
// an unknown destination.
var ErrClosed = errors.New("netsim: endpoint closed")

// ErrUnknown is returned when the destination name is not registered.
var ErrUnknown = errors.New("netsim: unknown destination")

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send transmits pkt to the named destination. Delivery is
	// asynchronous and may silently fail under loss or partition —
	// exactly the failure model 2PC is built for. A TCP Send may block
	// until the kernel takes the frame: the sender writes it itself.
	Send(to string, pkt protocol.Packet) error
	// Recv returns the channel of inbound packets. It is closed when
	// the endpoint closes.
	Recv() <-chan protocol.Packet
	// Close detaches the endpoint.
	Close() error
}

// Transform inspects (and may rewrite or drop) a message in flight.
// It returns the message to deliver and whether to deliver it at all.
// Chaos tests use it to inject protocol bugs (e.g. flip a Commit into
// an Abort) that the safety oracle must catch.
type Transform func(from, to string, m protocol.Message) (protocol.Message, bool)

// ChanNetwork is an in-process network delivering packets over Go
// channels, with per-link latency, probabilistic loss and partitions.
// It is safe for concurrent use.
type ChanNetwork struct {
	mu         sync.Mutex
	endpoints  map[string]*chanEndpoint
	latency    time.Duration
	lossProb   float64
	partitions map[[2]string]bool
	seed       int64
	linkRng    map[[2]string]*rand.Rand
	transform  Transform
	wire       *wireCodec
	closed     bool
}

// wireCodec round-trips every delivered packet through the wire
// format (see WithChanCodec). One codec serves the whole network
// under a mutex, as it would serve one TCP connection.
type wireCodec struct {
	mu    sync.Mutex
	codec *protocol.BinaryCodec
	buf   []byte
}

// roundTrip encodes pkt and decodes it back, returning what a real
// peer would have received.
func (w *wireCodec) roundTrip(pkt protocol.Packet) (protocol.Packet, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := w.codec.AppendFrame(w.buf[:0], pkt)
	if err != nil {
		return protocol.Packet{}, err
	}
	w.buf = buf
	// AppendFrame emits a 4-byte length prefix; DecodeFrame wants the
	// bare frame, as on the TCP read path.
	return w.codec.DecodeFrame(buf[4:])
}

// ChanOption configures a ChanNetwork.
type ChanOption func(*ChanNetwork)

// WithLatency sets a fixed one-way delivery delay.
func WithLatency(d time.Duration) ChanOption {
	return func(n *ChanNetwork) { n.latency = d }
}

// WithLoss sets the probability in [0,1] that any packet is dropped.
// Each link draws from its own RNG, seeded deterministically from the
// given seed and the link's (sorted) endpoint names, so a loss pattern
// replays exactly for a given seed regardless of goroutine scheduling
// across other links.
func WithLoss(p float64, seed int64) ChanOption {
	return func(n *ChanNetwork) {
		n.lossProb = p
		n.seed = seed
		n.linkRng = make(map[[2]string]*rand.Rand)
	}
}

// WithTransform installs a message transform applied to every message
// before delivery (after partition and loss checks).
func WithTransform(t Transform) ChanOption {
	return func(n *ChanNetwork) { n.transform = t }
}

// WithChanCodec makes the network encode and decode every delivered
// packet through protocol.BinaryCodec, so an in-process run (chaos
// replay, profiling) exercises the same byte-level marshaling a TCP
// deployment would. A packet the codec cannot round-trip is dropped
// and the error surfaces from Send.
func WithChanCodec() ChanOption {
	return func(n *ChanNetwork) {
		n.wire = &wireCodec{codec: protocol.NewBinaryCodec()}
	}
}

// NewChanNetwork returns an empty channel-backed network.
func NewChanNetwork(opts ...ChanOption) *ChanNetwork {
	n := &ChanNetwork{
		endpoints:  make(map[string]*chanEndpoint),
		partitions: make(map[[2]string]bool),
		seed:       1,
		linkRng:    make(map[[2]string]*rand.Rand),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// rngFor returns the deterministic RNG for a link, creating it on
// first use from the network seed and the link name. Callers hold n.mu.
func (n *ChanNetwork) rngFor(link [2]string) *rand.Rand {
	if r, ok := n.linkRng[link]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(link[0]))
	h.Write([]byte{0})
	h.Write([]byte(link[1]))
	r := rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))
	n.linkRng[link] = r
	return r
}

func linkOf(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition severs the link between a and b until Heal.
func (n *ChanNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[linkOf(a, b)] = true
}

// Heal restores the link between a and b.
func (n *ChanNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, linkOf(a, b))
}

// Endpoint registers (or returns) the endpoint named name. A closed
// endpoint is replaced with a fresh one, which is how a restarted
// participant rejoins the network after a simulated crash.
func (n *ChanNetwork) Endpoint(name string) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		ep.mu.Lock()
		dead := ep.dead
		ep.mu.Unlock()
		if !dead {
			return ep
		}
	}
	ep := &chanEndpoint{
		name: name,
		net:  n,
		in:   make(chan protocol.Packet, 256),
	}
	n.endpoints[name] = ep
	return ep
}

type chanEndpoint struct {
	name   string
	net    *ChanNetwork
	in     chan protocol.Packet
	closed sync.Once
	dead   bool
	mu     sync.Mutex
}

func (e *chanEndpoint) Name() string { return e.name }

func (e *chanEndpoint) Recv() <-chan protocol.Packet { return e.in }

func (e *chanEndpoint) Send(to string, pkt protocol.Packet) error {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()

	n := e.net
	n.mu.Lock()
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return ErrUnknown
	}
	link := linkOf(e.name, to)
	if n.partitions[link] {
		n.mu.Unlock()
		return nil // silently lost, like a real partition
	}
	if n.lossProb > 0 && n.rngFor(link).Float64() < n.lossProb {
		n.mu.Unlock()
		return nil // dropped
	}
	latency := n.latency
	transform := n.transform
	wire := n.wire
	n.mu.Unlock()

	if wire != nil {
		rt, err := wire.roundTrip(pkt)
		if err != nil {
			return fmt.Errorf("netsim: wire codec round-trip %s->%s: %w", e.name, to, err)
		}
		pkt = rt
	}

	if transform != nil {
		kept := pkt.Messages[:0:0]
		for _, m := range pkt.Messages {
			if tm, ok := transform(e.name, to, m); ok {
				kept = append(kept, tm)
			}
		}
		if len(kept) == 0 {
			return nil
		}
		pkt.Messages = kept
	}

	deliver := func() {
		// The mutex is held across the send so Close cannot close the
		// inbox between the liveness check and the send. The send is
		// non-blocking, so the critical section stays short.
		dst.mu.Lock()
		defer dst.mu.Unlock()
		if dst.dead {
			return
		}
		// Best effort: a full inbox drops the packet (backpressure as
		// loss, which the protocol's retries absorb).
		select {
		case dst.in <- pkt:
		default:
		}
	}
	if latency > 0 {
		time.AfterFunc(latency, deliver)
	} else {
		deliver()
	}
	return nil
}

func (e *chanEndpoint) Close() error {
	e.closed.Do(func() {
		e.mu.Lock()
		e.dead = true
		close(e.in)
		e.mu.Unlock()
	})
	return nil
}
