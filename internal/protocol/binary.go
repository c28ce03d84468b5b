package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// BinaryCodec is the wire format: a fixed little-endian header,
// varint-length strings, and explicit per-field encoding for every
// Message field. It is the only format on the wire. It replaced gob
// because gob pays a reflection walk per frame: in BENCH_live.json a
// two-message packet encodes in 63 ns here against 722 ns for a
// persistent gob stream and 8161 ns for per-packet gob.
// The commit hot path sends four flows per subordinate per
// transaction, so the codec is multiplied into everything; the paper's
// whole economy is making each flow cheap.
//
// Layout of one frame payload (after the transport's 4-byte big-endian
// length prefix, which lets transports split, drop, and transform
// frames without understanding them):
//
//	byte    version (binaryVersion)
//	string  From            (uvarint length + bytes)
//	string  To
//	uvarint message count
//	per message:
//	  byte    Type
//	  byte    flag bits: LongLocks, Delegate, Reliable, OKToLeaveOut,
//	          Unsolicited, LastAgent, RecoveryPending, Repeat
//	  byte    Presume
//	  byte    Vote
//	  byte    Outcome
//	  string  Tx
//	  string  NewTx
//	  bytes   Payload        (uvarint length + bytes)
//	  uvarint heuristic count
//	  per heuristic report:
//	    string  Node
//	    byte    flag bits: Committed, Damage
//	  uvarint Horizon in milliseconds, rounded up
//
// AppendFrame appends into the caller's buffer and performs zero
// allocations. DecodeFrame interns the small set of node and
// transaction names that repeat on a connection and allocates only the
// packet's []Message backing (taken from the shared message-slice
// pool), so steady-state decode is at most one allocation per frame.
//
// A BinaryCodec is bound to one connection — the intern table is
// per-connection state — but each frame is self-delimiting: decoding
// never depends on having seen earlier frames. The version byte that
// opens every frame is the format guard; a frame with any other first
// byte fails to decode, and the transport condemns the connection
// because corruption of a length-prefixed stream is not locally
// recoverable.
type BinaryCodec struct {
	mu    sync.Mutex
	names map[string]string
}

// binaryVersion is the format version stamped on every frame. Bump it
// when the layout changes; decoders reject versions they don't know.
const binaryVersion = 2

// maxHorizonMs bounds a message's Horizon on the wire (about 49 days),
// so a decoded horizon always fits a time.Duration.
const maxHorizonMs = 1<<32 - 1

// maxInternedNames bounds the per-connection intern table. Transaction
// ids are unique, so a long-lived connection would otherwise grow the
// table forever; on overflow the table resets and the hot names
// re-intern immediately.
const maxInternedNames = 4096

// Message flag bits.
const (
	flagLongLocks = 1 << iota
	flagDelegate
	flagReliable
	flagOKToLeaveOut
	flagUnsolicited
	flagLastAgent
	flagRecoveryPending
	flagRepeat
)

// Heuristic report flag bits.
const (
	flagHeurCommitted = 1 << iota
	flagHeurDamage
)

// NewBinaryCodec returns a codec for one connection.
func NewBinaryCodec() *BinaryCodec {
	return &BinaryCodec{names: make(map[string]string)}
}

// appendUvarint appends v in unsigned varint form.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendString appends a varint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFrame encodes one length-prefixed frame carrying
// pkt, appended to dst with no allocations beyond dst's own growth.
func (c *BinaryCodec) AppendFrame(dst []byte, pkt Packet) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, backfilled below
	dst = append(dst, binaryVersion)
	dst = appendString(dst, pkt.From)
	dst = appendString(dst, pkt.To)
	dst = appendUvarint(dst, uint64(len(pkt.Messages)))
	for i := range pkt.Messages {
		m := &pkt.Messages[i]
		if !fitsByte(int(m.Type)) || !fitsByte(int(m.Presume)) || !fitsByte(int(m.Vote)) || !fitsByte(int(m.Outcome)) {
			return dst[:start], fmt.Errorf("protocol: binary encode: enum field out of byte range in %+v", *m)
		}
		var flags byte
		if m.LongLocks {
			flags |= flagLongLocks
		}
		if m.Delegate {
			flags |= flagDelegate
		}
		if m.Reliable {
			flags |= flagReliable
		}
		if m.OKToLeaveOut {
			flags |= flagOKToLeaveOut
		}
		if m.Unsolicited {
			flags |= flagUnsolicited
		}
		if m.LastAgent {
			flags |= flagLastAgent
		}
		if m.RecoveryPending {
			flags |= flagRecoveryPending
		}
		if m.Repeat {
			flags |= flagRepeat
		}
		dst = append(dst, byte(m.Type), flags, byte(m.Presume), byte(m.Vote), byte(m.Outcome))
		dst = appendString(dst, m.Tx)
		dst = appendString(dst, m.NewTx)
		dst = appendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
		dst = appendUvarint(dst, uint64(len(m.Heuristics)))
		for _, h := range m.Heuristics {
			dst = appendString(dst, h.Node)
			var hf byte
			if h.Committed {
				hf |= flagHeurCommitted
			}
			if h.Damage {
				hf |= flagHeurDamage
			}
			dst = append(dst, hf)
		}
		hz := (m.Horizon + time.Millisecond - 1) / time.Millisecond
		if m.Horizon < 0 || hz > maxHorizonMs {
			return dst[:start], fmt.Errorf("protocol: binary encode: horizon %v out of range", m.Horizon)
		}
		dst = appendUvarint(dst, uint64(hz))
	}
	payload := len(dst) - start - 4
	if payload > maxEncodedFrame {
		return dst[:start], fmt.Errorf("protocol: binary encode: frame %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// maxEncodedFrame mirrors the transports' frame bound so an encoder
// can never produce a frame its peer's read loop will refuse.
const maxEncodedFrame = 16 << 20

// fitsByte reports whether an enum value survives a byte round trip.
func fitsByte(v int) bool { return v >= 0 && v <= 0xff }

// binReader walks one frame payload.
type binReader struct {
	buf []byte
	off int
}

var errTruncated = fmt.Errorf("protocol: binary decode: truncated frame")

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

// bytes returns the next n raw bytes, still aliasing the frame.
func (r *binReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.off) {
		return nil, errTruncated
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// string reads a varint-prefixed string, interning it so the node and
// transaction names that repeat on a connection are allocated once.
func (c *BinaryCodec) string(r *binReader) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	raw, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	if len(raw) == 0 {
		return "", nil
	}
	// The map lookup with a []byte->string conversion key does not
	// allocate (the compiler recognizes the idiom); only a miss pays
	// for the string copy.
	if s, ok := c.names[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	if len(c.names) >= maxInternedNames {
		clear(c.names)
	}
	c.names[s] = s
	return s, nil
}

// DecodeFrame decodes the packet carried by one frame payload (the
// bytes after the length prefix). The returned packet's strings are
// interned per connection and its Messages slice comes from the shared
// message pool; the frame's backing array may be reused by the caller
// as soon as DecodeFrame returns.
func (c *BinaryCodec) DecodeFrame(frame []byte) (Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &binReader{buf: frame}
	v, err := r.byte()
	if err != nil {
		return Packet{}, err
	}
	if v != binaryVersion {
		return Packet{}, fmt.Errorf("protocol: binary decode: unknown format version %d", v)
	}
	var pkt Packet
	if pkt.From, err = c.string(r); err != nil {
		return Packet{}, err
	}
	if pkt.To, err = c.string(r); err != nil {
		return Packet{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return Packet{}, err
	}
	if n > uint64(len(frame)) { // each message costs >= 1 byte
		return Packet{}, fmt.Errorf("protocol: binary decode: message count %d exceeds frame", n)
	}
	if n == 0 {
		return pkt, nil
	}
	msgs := GetMsgSlice(int(n))[:n]
	for i := range msgs {
		if err := c.decodeMessage(r, &msgs[i]); err != nil {
			PutMsgSlice(msgs)
			return Packet{}, err
		}
	}
	pkt.Messages = msgs
	return pkt, nil
}

func (c *BinaryCodec) decodeMessage(r *binReader, m *Message) error {
	hdr, err := r.bytes(5)
	if err != nil {
		return err
	}
	m.Type = MsgType(hdr[0])
	flags := hdr[1]
	m.Presume = Variant(hdr[2])
	m.Vote = VoteValue(hdr[3])
	m.Outcome = OutcomeKind(hdr[4])
	m.LongLocks = flags&flagLongLocks != 0
	m.Delegate = flags&flagDelegate != 0
	m.Reliable = flags&flagReliable != 0
	m.OKToLeaveOut = flags&flagOKToLeaveOut != 0
	m.Unsolicited = flags&flagUnsolicited != 0
	m.LastAgent = flags&flagLastAgent != 0
	m.RecoveryPending = flags&flagRecoveryPending != 0
	m.Repeat = flags&flagRepeat != 0
	if m.Tx, err = c.string(r); err != nil {
		return err
	}
	if m.NewTx, err = c.string(r); err != nil {
		return err
	}
	pn, err := r.uvarint()
	if err != nil {
		return err
	}
	if pn > 0 {
		raw, err := r.bytes(pn)
		if err != nil {
			return err
		}
		m.Payload = append([]byte(nil), raw...)
	} else {
		m.Payload = nil
	}
	hn, err := r.uvarint()
	if err != nil {
		return err
	}
	if hn > uint64(len(r.buf)) { // each report costs >= 2 bytes
		return fmt.Errorf("protocol: binary decode: heuristic count %d exceeds frame", hn)
	}
	m.Heuristics = nil
	if hn > 0 {
		m.Heuristics = make([]HeuristicReport, hn)
	}
	for i := range m.Heuristics {
		h := &m.Heuristics[i]
		if h.Node, err = c.string(r); err != nil {
			return err
		}
		hf, err := r.byte()
		if err != nil {
			return err
		}
		h.Committed = hf&flagHeurCommitted != 0
		h.Damage = hf&flagHeurDamage != 0
	}
	hz, err := r.uvarint()
	if err != nil {
		return err
	}
	if hz > maxHorizonMs {
		return fmt.Errorf("protocol: binary decode: horizon %d ms out of range", hz)
	}
	m.Horizon = time.Duration(hz) * time.Millisecond
	return nil
}
