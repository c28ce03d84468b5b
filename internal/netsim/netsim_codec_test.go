package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
)

// chanCodecPacket is a packet touching every wire field, so a chan
// network round-trip through a real codec exercises the full layout.
func chanCodecPacket() protocol.Packet {
	return protocol.Packet{
		From: "alpha",
		To:   "omega",
		Messages: []protocol.Message{
			{
				Type:    protocol.MsgPrepare,
				Tx:      "alpha:7",
				Presume: protocol.VariantPA,
				Payload: []byte{0x00, 0xff, 0x10},
			},
			{
				Type:    protocol.MsgAck,
				Tx:      "alpha:7",
				Outcome: protocol.OutcomeCommit,
				Heuristics: []protocol.HeuristicReport{
					{Node: "omega", Committed: true, Damage: true},
				},
				RecoveryPending: true,
			},
		},
	}
}

// TestChanNetworkCodecRoundTrip sends one rich packet through a chan
// network with the wire round trip on and requires delivery to be
// byte-faithful: what arrives is what a real TCP peer would decode.
func TestChanNetworkCodecRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		net := NewChanNetwork(WithChanCodec())
		a := net.Endpoint("alpha")
		b := net.Endpoint("omega")
		defer a.Close()
		defer b.Close()

		// Two sends, so the codec's per-connection name table is hit as
		// well as filled.
		want := chanCodecPacket()
		for i := 0; i < 2; i++ {
			if err := a.Send("omega", chanCodecPacket()); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			select {
			case got := <-b.Recv():
				if got.From != want.From || got.To != want.To ||
					!reflect.DeepEqual(got.Messages, want.Messages) {
					t.Fatalf("send %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
				}
			case <-time.After(time.Second):
				t.Fatalf("send %d: packet never delivered", i)
			}
		}
	})
}
