package protocol

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func testPacket(i int) Packet {
	return Packet{
		From: "C", To: fmt.Sprintf("S%d", i%3),
		Messages: []Message{
			{Type: MsgPrepare, Tx: fmt.Sprintf("C:%d", i), Presume: VariantPA},
			{Type: MsgCommit, Tx: fmt.Sprintf("C:%d", i+1)},
		},
	}
}

// splitFrames cuts a concatenation of length-prefixed frames back into
// payloads, as a transport's read loop would.
func splitFrames(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(wire) > 0 {
		if len(wire) < 4 {
			t.Fatalf("truncated length prefix: %d bytes left", len(wire))
		}
		n := binary.BigEndian.Uint32(wire)
		wire = wire[4:]
		if uint32(len(wire)) < n {
			t.Fatalf("truncated frame: want %d, have %d", n, len(wire))
		}
		frames = append(frames, wire[:n])
		wire = wire[n:]
	}
	return frames
}

// fullPacket exercises every Message field the wire format carries.
func fullPacket() Packet {
	return Packet{
		From: "C", To: "S1",
		Messages: []Message{
			{Type: MsgData, Tx: "C:1", Payload: []byte{1, 2, 3}, NewTx: "C:2"},
			{Type: MsgPrepare, Tx: "C:1", LongLocks: true, Presume: VariantPC, Delegate: true, Repeat: true},
			{Type: MsgVote, Tx: "C:1", Vote: VoteReadOnly, Reliable: true, OKToLeaveOut: true, Unsolicited: true, LastAgent: true},
			{Type: MsgCommit, Tx: "C:1"},
			{Type: MsgAbort, Tx: "C:1"},
			{Type: MsgAck, Tx: "C:1", RecoveryPending: true, Heuristics: []HeuristicReport{
				{Node: "S2", Committed: true, Damage: true},
				{Node: "S3"},
			}},
			{Type: MsgInquire, Tx: "C:1"},
			{Type: MsgOutcome, Tx: "C:1", Outcome: OutcomeInProgress},
			{Type: MsgPaxosAccept, Tx: "C:1", Vote: VoteYes, Presume: VariantPaxos,
				Payload: PaxosMeta{Ballot: 0, Instance: "S1", Leader: "C",
					Acceptors:    []string{"C", "S1", "S2"},
					Participants: []string{"C", "S1", "S2", "S3"}}.Encode()},
			{Type: MsgPaxosAccepted, Tx: "C:1", Vote: VoteNo,
				Payload: PaxosMeta{Ballot: 7, Instance: "S2"}.Encode()},
			{Type: MsgPaxosQuery, Tx: "C:1",
				Payload: PaxosMeta{Ballot: 5, Leader: "S1", Acceptors: []string{"C", "S1", "S2"}}.Encode()},
			{Type: MsgPaxosPromise, Tx: "C:1",
				Payload: PaxosMeta{Ballot: 5, States: []PaxosInstanceState{
					{Instance: "C", Ballot: 0, Vote: VoteYes},
					{Instance: "S3", Ballot: 5, Vote: VoteNo}}}.Encode()},
		},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	enc := NewBinaryCodec()
	dec := NewBinaryCodec()
	packets := []Packet{
		fullPacket(),
		{From: "a", To: "b"}, // no messages
		{},                   // fully zero
		{From: "C", To: "S1", Messages: []Message{{}}}, // zero message
		testPacket(0),
		testPacket(1),
	}
	var wire []byte
	for _, pkt := range packets {
		var err error
		wire, err = enc.AppendFrame(wire, pkt)
		if err != nil {
			t.Fatal(err)
		}
	}
	frames := splitFrames(t, wire)
	if len(frames) != len(packets) {
		t.Fatalf("frames = %d, want %d", len(frames), len(packets))
	}
	for i, f := range frames {
		got, err := dec.DecodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := packets[i]
		// The pooled decode slice may have spare capacity; compare
		// contents, not slice headers.
		if got.From != want.From || got.To != want.To || !reflect.DeepEqual(got.Messages, want.Messages) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// Decoded packets must be gob-identical: zero-length strings decode to
// "" and zero-length slices to nil, exactly as gob produces them.
func TestBinaryCodecGobParity(t *testing.T) {
	pkt := fullPacket()
	binWire, err := NewBinaryCodec().AppendFrame(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	gobBlob, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	binPkt, err := NewBinaryCodec().DecodeFrame(splitFrames(t, binWire)[0])
	if err != nil {
		t.Fatal(err)
	}
	gobPkt, err := Decode(gobBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(binPkt, gobPkt) {
		t.Fatalf("binary and gob decode differ:\nbinary %+v\ngob    %+v", binPkt, gobPkt)
	}
}

func TestBinaryCodecDecodeErrors(t *testing.T) {
	enc := NewBinaryCodec()
	wire, err := enc.AppendFrame(nil, fullPacket())
	if err != nil {
		t.Fatal(err)
	}
	frame := splitFrames(t, wire)[0]

	cases := map[string][]byte{
		"empty":           {},
		"bad version":     append([]byte{0x7f}, frame[1:]...),
		"truncated early": frame[:3],
		"truncated mid":   frame[:len(frame)/2],
		"truncated late":  frame[:len(frame)-1],
	}
	// A frame claiming a huge message count must be rejected by bounds
	// checking, not by attempting a huge pool allocation.
	huge := []byte{binaryVersion}
	huge = appendString(huge, "C")
	huge = appendString(huge, "S")
	huge = appendUvarint(huge, 1<<40)
	cases["huge message count"] = huge

	hugeHeur := []byte{binaryVersion}
	hugeHeur = appendString(hugeHeur, "C")
	hugeHeur = appendString(hugeHeur, "S")
	hugeHeur = appendUvarint(hugeHeur, 1)
	hugeHeur = append(hugeHeur, byte(MsgAck), 0, 0, 0, 0)
	hugeHeur = appendString(hugeHeur, "C:1")
	hugeHeur = appendString(hugeHeur, "")
	hugeHeur = appendUvarint(hugeHeur, 0)     // payload
	hugeHeur = appendUvarint(hugeHeur, 1<<40) // heuristic count
	cases["huge heuristic count"] = hugeHeur

	for name, f := range cases {
		dec := NewBinaryCodec()
		if _, err := dec.DecodeFrame(f); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}

	// Truncating at every byte offset must error, never panic.
	for i := 0; i < len(frame); i++ {
		dec := NewBinaryCodec()
		if _, err := dec.DecodeFrame(frame[:i]); err == nil {
			t.Errorf("truncation at %d: decode succeeded, want error", i)
		}
	}
}

// Enum values that don't survive a byte round trip must be refused at
// encode time rather than decoded as a different value.
func TestBinaryCodecEncodeRejectsWideEnums(t *testing.T) {
	pkt := Packet{From: "a", To: "b", Messages: []Message{{Type: MsgType(300)}}}
	if _, err := NewBinaryCodec().AppendFrame(nil, pkt); err == nil {
		t.Fatal("encode accepted MsgType(300)")
	}
}

// TestBinaryCodecHorizonMilliseconds: a message's Horizon travels in
// whole milliseconds, rounded up, so a receiver never reads a shorter
// retransmission horizon than the sender's; one that does not fit the
// wire is rejected.
func TestBinaryCodecHorizonMilliseconds(t *testing.T) {
	c := NewBinaryCodec()
	for _, tc := range []struct{ in, want time.Duration }{
		{0, 0},
		{time.Microsecond, time.Millisecond},
		{1500 * time.Microsecond, 2 * time.Millisecond},
		{2 * time.Second, 2 * time.Second},
	} {
		frame, err := c.AppendFrame(nil, Packet{From: "C", To: "S", Messages: []Message{{Type: MsgPrepare, Tx: "C:1", Horizon: tc.in}}})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := c.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if got := pkt.Messages[0].Horizon; got != tc.want {
			t.Errorf("horizon %v decoded as %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []time.Duration{-time.Millisecond, (maxHorizonMs + 1) * time.Millisecond} {
		if _, err := c.AppendFrame(nil, Packet{Messages: []Message{{Type: MsgPrepare, Horizon: bad}}}); err == nil {
			t.Errorf("horizon %v encoded, want an error", bad)
		}
	}
}

// The decoded packet must not alias the frame's backing array: the
// transport reuses frame buffers immediately after DecodeFrame.
func TestBinaryCodecDecodeDoesNotAliasFrame(t *testing.T) {
	enc, dec := NewBinaryCodec(), NewBinaryCodec()
	wire, err := enc.AppendFrame(nil, fullPacket())
	if err != nil {
		t.Fatal(err)
	}
	frame := splitFrames(t, wire)[0]
	got, err := dec.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	want := fullPacket()
	if got.From != want.From || got.To != want.To || !reflect.DeepEqual(got.Messages, want.Messages) {
		t.Fatalf("decoded packet aliases frame buffer:\n got %+v\nwant %+v", got, want)
	}
}

// Steady-state decode: interning removes the string allocations, the
// message pool removes the slice allocation, so a decode+recycle cycle
// costs at most one allocation (the pool's slice-header box on Put).
func TestBinaryCodecSteadyStateDecodeAllocs(t *testing.T) {
	enc, dec := NewBinaryCodec(), NewBinaryCodec()
	pkt := testPacket(3)
	wire, err := enc.AppendFrame(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	frame := splitFrames(t, wire)[0]
	// Warm the intern table and the message pool.
	for i := 0; i < 4; i++ {
		got, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		PutMsgSlice(got.Messages)
	}
	allocs := testing.AllocsPerRun(200, func() {
		got, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		PutMsgSlice(got.Messages)
	})
	if allocs > 1 {
		t.Errorf("steady-state decode allocates %.1f objects/op, want <= 1", allocs)
	}
}

// Encode must append into the caller's buffer with zero allocations.
func TestBinaryCodecEncodeAllocs(t *testing.T) {
	enc := NewBinaryCodec()
	pkt := fullPacket()
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = enc.AppendFrame(buf[:0], pkt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFrame allocates %.1f objects/op, want 0", allocs)
	}
}

// The intern table must not grow without bound under a stream of
// unique transaction ids.
func TestBinaryCodecInternTableBounded(t *testing.T) {
	enc, dec := NewBinaryCodec(), NewBinaryCodec()
	var buf []byte
	for i := 0; i < 3*maxInternedNames; i++ {
		pkt := Packet{From: "C", To: "S", Messages: []Message{
			{Type: MsgCommit, Tx: fmt.Sprintf("C:%d", i)},
		}}
		var err error
		buf, err = enc.AppendFrame(buf[:0], pkt)
		if err != nil {
			t.Fatal(err)
		}
		n := binary.BigEndian.Uint32(buf)
		if _, err := dec.DecodeFrame(buf[4 : 4+n]); err != nil {
			t.Fatal(err)
		}
	}
	if len(dec.names) > maxInternedNames {
		t.Fatalf("intern table grew to %d entries, cap is %d", len(dec.names), maxInternedNames)
	}
}

// Satellite regression: FrameBufPool must drop jumbo buffers on Put so
// one large frame can't pin memory for the pool's lifetime.
func TestFrameBufPoolDropsJumboBuffers(t *testing.T) {
	jumbo := make([]byte, MaxPooledFrameBuf+1)
	pj := &jumbo
	PutFrameBuf(pj)
	for i := 0; i < 64; i++ {
		got := FrameBufPool.Get().(*[]byte)
		if got == pj || cap(*got) > MaxPooledFrameBuf {
			t.Fatalf("pool returned a jumbo buffer (cap %d) after PutFrameBuf", cap(*got))
		}
		defer PutFrameBuf(got)
	}
	// A normal-sized buffer must still be retained and come back reset.
	ok := make([]byte, 100, 4096)
	PutFrameBuf(&ok)
	if len(ok) != 0 {
		t.Fatalf("PutFrameBuf left len=%d, want 0", len(ok))
	}
}

func TestMsgSlicePoolClearsAndBounds(t *testing.T) {
	s := GetMsgSlice(4)
	s = append(s, Message{Tx: "C:1", Payload: []byte{1}, Heuristics: []HeuristicReport{{Node: "S"}}})
	PutMsgSlice(s)
	again := GetMsgSlice(1)
	if n := len(again); n != 0 {
		t.Fatalf("GetMsgSlice returned len=%d, want 0", n)
	}
	full := again[:cap(again)]
	for i := range full {
		if full[i].Payload != nil || full[i].Heuristics != nil || full[i].Tx != "" {
			t.Fatalf("pooled slice element %d not cleared: %+v", i, full[i])
		}
	}
	PutMsgSlice(again)
	// Oversized slices must not be retained.
	PutMsgSlice(make([]Message, maxPooledMsgs+1))
	got := GetMsgSlice(1)
	if cap(got) > maxPooledMsgs {
		t.Fatalf("pool retained oversized slice (cap %d)", cap(got))
	}
	PutMsgSlice(got)
}

func BenchmarkBinaryCodecEncode(b *testing.B) {
	enc := NewBinaryCodec()
	pkt := testPacket(1)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = enc.AppendFrame(buf[:0], pkt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryCodecDecode decodes the packet shape the encode
// benchmark produces, walking the frames as a transport read loop does.
func BenchmarkBinaryCodecDecode(b *testing.B) {
	enc, dec := NewBinaryCodec(), NewBinaryCodec()
	var wire []byte
	for i := 0; i < b.N; i++ {
		var err error
		wire, err = enc.AppendFrame(wire, testPacket(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for len(wire) > 0 {
		n := binary.BigEndian.Uint32(wire)
		frame := wire[4 : 4+n]
		wire = wire[4+n:]
		pkt, err := dec.DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		PutMsgSlice(pkt.Messages)
	}
}
