package protocol

import (
	"reflect"
	"testing"
	"time"
)

// FuzzDecode feeds arbitrary bytes to the decoder that parses every
// TCP frame payload. It must never panic — a corrupted frame condemns
// its connection, not the process — and whatever it accepts must
// survive a re-encode and decode unchanged, so the decoder cannot
// accept a packet the encoder would write differently.
func FuzzDecode(f *testing.F) {
	good, _ := NewBinaryCodec().AppendFrame(nil, Packet{From: "A", To: "B", Messages: []Message{{Type: MsgPrepare, Tx: "A:1"}}})
	f.Add(good[4:]) // the payload, as the read loop hands it over
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte{binaryVersion, 0x00, 0x13, 0x37})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := NewBinaryCodec().DecodeFrame(data) // must not panic
		if err != nil {
			return
		}
		frame, err := NewBinaryCodec().AppendFrame(nil, pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		again, err := NewBinaryCodec().DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, pkt) {
			t.Fatalf("re-encode drift:\n got %+v\nwant %+v", again, pkt)
		}
	})
}

// FuzzBinaryVsGobRoundTrip is the differential oracle for the
// hand-rolled wire format: the same packet encoded with BinaryCodec
// and with the self-describing gob encoding (gob_test.go) must decode
// to identical values, and both must equal the input (normalized for the
// one representational freedom both codecs share: empty strings and
// slices decode to their zero value, never to a non-nil empty).
func FuzzBinaryVsGobRoundTrip(f *testing.F) {
	// One seed per message type, plus empty-payload and heuristic
	// variants — the corners where explicit field encoding and gob's
	// reflection walk could diverge.
	for mt := MsgData; mt <= MsgOutcome; mt++ {
		f.Add("C", "S1", "C:1", "", uint8(mt), uint8(1), uint8(0), uint8(0), uint8(0), []byte(nil), "", uint8(0), uint16(2000))
	}
	f.Add("C", "S1", "C:2", "C:3", uint8(MsgData), uint8(0), uint8(0), uint8(0), uint8(0xff), []byte{}, "", uint8(0), uint16(0))
	f.Add("C", "S1", "C:4", "", uint8(MsgAck), uint8(2), uint8(2), uint8(3), uint8(0x40), []byte{0, 1, 0xff}, "S2", uint8(3), uint16(0))
	f.Add("", "", "", "", uint8(MsgVote), uint8(3), uint8(1), uint8(1), uint8(0xaa), []byte(nil), "node-with-a-long-name", uint8(1), uint16(0))
	// The one-phase vote: Variant1PC with an opc1 redo payload riding
	// the Payload field — the fast path's whole durability story on
	// the wire.
	onePhase := OnePhaseMeta{Subs: []string{"S1", "S2"}, Redos: [][]byte{{0x01}, nil}}.Encode()
	f.Add("S1", "C", "C:5", "", uint8(MsgVote), uint8(Variant1PC), uint8(VoteYes), uint8(0), uint8(16), onePhase, "", uint8(0), uint16(0))

	bin := NewBinaryCodec()
	f.Fuzz(func(t *testing.T, from, to, tx, newTx string,
		typ, presume, vote, outcome, flags uint8, payload []byte, hNode string, hFlags uint8, hz uint16) {
		m := Message{
			Type:            MsgType(typ) % (MsgOutcome + 1),
			Tx:              tx,
			LongLocks:       flags&1 != 0,
			Presume:         Variant(presume) % (Variant1PC + 1),
			Delegate:        flags&2 != 0,
			Vote:            VoteValue(vote) % (VoteReadOnly + 1),
			Reliable:        flags&4 != 0,
			OKToLeaveOut:    flags&8 != 0,
			Unsolicited:     flags&16 != 0,
			LastAgent:       flags&32 != 0,
			RecoveryPending: flags&64 != 0,
			Repeat:          flags&128 != 0,
			Outcome:         OutcomeKind(outcome) % (OutcomeInProgress + 1),
			NewTx:           newTx,
			Horizon:         time.Duration(hz) * time.Millisecond,
		}
		if len(payload) > 0 {
			m.Payload = payload
		}
		if hNode != "" || hFlags != 0 {
			m.Heuristics = []HeuristicReport{
				{Node: hNode, Committed: hFlags&1 != 0, Damage: hFlags&2 != 0},
			}
		}
		// Two messages per packet so framing state (counts, offsets) is
		// exercised, with the second message a mutation of the first.
		m2 := m
		m2.Type = (m.Type + 1) % (MsgOutcome + 1)
		m2.Tx = tx + "'"
		m2.Heuristics = nil
		m2.Payload = nil
		want := Packet{From: from, To: to, Messages: []Message{m, m2}}

		binFrame, err := bin.AppendFrame(nil, want)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		gobBlob, err := want.Encode()
		if err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		binPkt, err := bin.DecodeFrame(binFrame[4:]) // strip length prefix
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		gobPkt, err := Decode(gobBlob)
		if err != nil {
			t.Fatalf("gob decode: %v", err)
		}
		if !reflect.DeepEqual(binPkt, gobPkt) {
			t.Fatalf("codec divergence:\n binary %+v\n    gob %+v", binPkt, gobPkt)
		}
		if !reflect.DeepEqual(binPkt, want) {
			t.Fatalf("binary round-trip drift:\n got %+v\nwant %+v", binPkt, want)
		}
	})
}
