package netsim

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
)

// rawDial opens a plain TCP connection to the endpoint and writes the
// given bytes, returning the connection.
func rawDial(t *testing.T, e *TCPEndpoint, b []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitClosed asserts the peer closes the connection (read returns an
// error) within the deadline — i.e. the connection was condemned.
func waitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open, want condemned")
	}
}

// A corrupt frame must condemn only that connection — without
// panicking — and leave the endpoint serving fresh connections. The
// bad-version case is the per-frame format guard: a well-formed length
// prefix and an otherwise valid payload whose first byte is not
// binaryVersion.
func TestTCPCorruptFrameCondemnsConnection(t *testing.T) {
	good, err := protocol.NewBinaryCodec().AppendFrame(nil, pkt("X", "E", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	badVersion := append([]byte(nil), good...)
	badVersion[4]++ // the version byte opens the payload, after the length prefix
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"binary", []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}},
		{"bad-version", badVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := ListenTCP("E", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			conn := rawDial(t, e, tc.wire)
			defer conn.Close()
			waitClosed(t, conn)
			select {
			case p := <-e.Recv():
				t.Fatalf("corrupt frame delivered %+v", p)
			default:
			}

			// The endpoint must still accept and serve a healthy peer.
			h, err := ListenTCP("H", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			h.Register("E", e.Addr())
			if err := h.Send("E", pkt("H", "E", "ok")); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, e); got.Messages[0].Tx != "ok" {
				t.Fatalf("got %+v", got)
			}
		})
	}
}

// A truncated frame header (connection dies mid-prefix) must condemn
// the connection without delivering anything or panicking.
func TestTCPTruncatedHeaderCondemnsConnection(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	conn := rawDial(t, e, []byte{0, 0}) // half a length prefix
	conn.Close()
	select {
	case p := <-e.Recv():
		t.Fatalf("unexpected packet %+v", p)
	case <-time.After(100 * time.Millisecond):
	}
}

// A length prefix past maxFrame is refused rather than allocated.
func TestTCPOversizedFrameCondemnsConnection(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	conn := rawDial(t, e, hdr[:])
	defer conn.Close()
	waitClosed(t, conn)
}
