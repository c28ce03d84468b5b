package netsim

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

// listenPair starts endpoints A and B with A registered to reach B.
func listenPair(t *testing.T) (a, b *TCPEndpoint) {
	t.Helper()
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.Register("B", b.Addr())
	return a, b
}

// cached returns the connection a holds for to, or nil.
func cached(a *TCPEndpoint, to string) *tcpConn {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.conns[to]
}

// Concurrent senders to one peer share its connection, and each
// sender's frames arrive in the order it sent them.
func TestTCPConcurrentSendersKeepTheirOrder(t *testing.T) {
	a, b := listenPair(t)
	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.Send("B", pkt("A", "B", fmt.Sprintf("%d:%d", s, i))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		p := recvOne(t, b)
		for _, m := range p.Messages {
			var s, i int
			if _, err := fmt.Sscanf(m.Tx, "%d:%d", &s, &i); err != nil {
				t.Fatalf("bad tx %q: %v", m.Tx, err)
			}
			if i != next[s] {
				t.Fatalf("sender %d: frame %d arrived when %d was due", s, i, next[s])
			}
			next[s]++
		}
	}
	wg.Wait()
}

// A peer that restarts on the same address is reached again: the
// write that fails on the old connection condemns it, and the Send
// that saw the failure redials and delivers its own frame.
func TestTCPRedialsRestartedPeer(t *testing.T) {
	a, b := listenPair(t)
	if err := a.Send("B", pkt("A", "B", "before")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	addr := b.Addr()
	b.Close()
	b2, err := ListenTCP("B", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	old := cached(a, "B")
	// The first frames after the restart may go into the old
	// connection's socket before the kernel learns the peer is gone;
	// they are lost as on the wire. The Send whose write fails redials.
	for i := 0; cached(a, "B") == old; i++ {
		if i == 50 {
			t.Fatal("50 sends after the peer restarted, and the old connection is still cached")
		}
		tx := fmt.Sprintf("after%d", i)
		if err := a.Send("B", pkt("A", "B", tx)); err != nil {
			t.Fatalf("send %s: %v", tx, err)
		}
		if cached(a, "B") != old {
			if got := recvOne(t, b2); got.Messages[0].Tx != tx {
				t.Fatalf("the restarted peer got %s first, want %s: the redialing Send lost its frame", got.Messages[0].Tx, tx)
			}
			break
		}
		time.Sleep(5 * time.Millisecond) // let the peer's reset arrive
	}
	if err := a.Send("B", pkt("A", "B", "next")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b2); got.Messages[0].Tx != "next" {
		t.Fatalf("got %s, want next", got.Messages[0].Tx)
	}
}

// Close returns while a Send is blocked writing to a peer that stopped
// reading, and the blocked Send returns too.
func TestTCPCloseUnblocksStalledSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, never read
		}
	}()
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Register("S", ln.Addr().String())

	var sent atomic.Int64
	returned := make(chan error, 1)
	go func() {
		big := make([]byte, 256<<10)
		for {
			p := protocol.Packet{From: "A", To: "S", Messages: []protocol.Message{{Type: protocol.MsgData, Tx: "x", Payload: big}}}
			if err := a.Send("S", p); err != nil {
				returned <- err
				return
			}
			sent.Add(1)
		}
	}()
	// Wait until Sends stop completing: the socket buffers are full and
	// one is blocked in its write.
	for last := int64(-1); ; {
		time.Sleep(50 * time.Millisecond)
		n := sent.Load()
		if n == last {
			break
		}
		last = n
	}
	select {
	case err := <-returned:
		t.Fatalf("sender stopped on its own: %v", err)
	default:
	}
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked behind a stalled Send")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled Send did not return after Close")
	}
	if c := <-accepted; c != nil {
		c.Close()
	}
}
