package netsim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
)

func benchPacket(i int) protocol.Packet {
	return protocol.Packet{
		From: "A", To: "B",
		Messages: []protocol.Message{{Type: protocol.MsgPrepare, Tx: fmt.Sprintf("A:%d", i), Presume: protocol.VariantPA}},
	}
}

// benchTCPPair builds a registered A<->B TCP pair and a drain goroutine
// on B, returning A and a received-packet counter.
func benchTCPPair(b *testing.B) (*TCPEndpoint, *atomic.Int64) {
	b.Helper()
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bb, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	a.Register("B", bb.Addr())
	var got atomic.Int64
	go func() {
		for p := range bb.Recv() {
			got.Add(1)
			// Model a consumer that has finished dispatching the packet:
			// recycle the decoded message slice.
			protocol.PutMsgSlice(p.Messages)
		}
	}()
	b.Cleanup(func() {
		a.Close()
		bb.Close()
	})
	return a, &got
}

// BenchmarkTCPConcurrentSendsOnePeer is the regression benchmark for
// the send path's critical section: many goroutines sending to the
// same peer share one connection, and frames encoded while a write is
// in flight must ride the next write together rather than take a
// syscall each. If the sends ever serialize on the write, this
// benchmark regresses first.
func BenchmarkTCPConcurrentSendsOnePeer(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		a, _ := benchTCPPair(b)
		var i atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := a.Send("B", benchPacket(int(i.Add(1)))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkTCPSendRoundTrip measures single-sender send+deliver cost.
func BenchmarkTCPSendRoundTrip(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		a, got := benchTCPPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send("B", benchPacket(i)); err != nil {
				b.Fatal(err)
			}
		}
		// Drain fully so delivery cost is inside the timed window.
		for got.Load() < int64(b.N) {
		}
	})
}
