package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// txInShard picks a transaction id that hashes to the given shard of
// p's state table.
func txInShard(t *testing.T, p *Participant, shard int) string {
	t.Helper()
	for seq := uint64(1); seq < 100000; seq++ {
		tx := core.TxID{Origin: core.NodeID(p.name), Seq: seq}
		if p.shardFor(tx.String()) == p.shards[shard] {
			return tx.String()
		}
	}
	t.Fatalf("no tx id found for shard %d", shard)
	return ""
}

func TestShardCountOption(t *testing.T) {
	net := netsim.NewChanNetwork()
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {8, 8}} {
		p := NewParticipant("C", net.Endpoint(fmt.Sprintf("C%d", tc.in)),
			wal.New(wal.NewMemStore()), nil, WithShards(tc.in))
		if got := p.ShardCount(); got != tc.want {
			t.Errorf("WithShards(%d): ShardCount = %d, want %d", tc.in, got, tc.want)
		}
	}
	p := NewParticipant("C", net.Endpoint("Cdef"), wal.New(wal.NewMemStore()), nil)
	if got := p.ShardCount(); got != defaultTxShards() {
		t.Errorf("default ShardCount = %d, want %d", got, defaultTxShards())
	}
}

// TestShardedTableSpansAllShards commits one transaction per shard and
// asserts the single-logical-table views hold: Decided sees every
// outcome, inquiries answer correctly no matter which shard holds the
// answer, and the live table drains to empty.
func TestShardedTableSpansAllShards(t *testing.T) {
	const shards = 8
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rc")}, WithShards(shards))
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rs")}, WithShards(shards))
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	txs := make([]string, shards)
	for i := range txs {
		txs[i] = txInShard(t, coord, i)
	}
	ctx := context.Background()
	for _, tx := range txs {
		out, err := coord.Commit(ctx, tx, []string{"S"})
		if err != nil || out != Committed {
			t.Fatalf("commit %s: %v %v", tx, out, err)
		}
	}

	decided := coord.Decided()
	for _, tx := range txs {
		committed, ok := decided[tx]
		if !ok || !committed {
			t.Errorf("Decided()[%s] = %v, %v; want committed", tx, committed, ok)
		}
	}

	// Inquiries must find the answer in whichever shard holds it.
	q := net.Endpoint("Q")
	for _, tx := range txs {
		if err := q.Send("C", protocol.Packet{From: "Q", To: "C",
			Messages: []protocol.Message{{Type: protocol.MsgInquire, Tx: tx}}}); err != nil {
			t.Fatal(err)
		}
		select {
		case pkt := <-q.Recv():
			m := pkt.Messages[0]
			if m.Type != protocol.MsgOutcome || m.Outcome != protocol.OutcomeCommit {
				t.Fatalf("inquiry for %s answered %v/%v, want Outcome/Commit", tx, m.Type, m.Outcome)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("inquiry for %s never answered", tx)
		}
	}

	waitUntil(t, time.Second, func() bool { return coord.StateTableSize() == 0 })
}

// TestShardedRecoveryReplaySpansAllShards restarts a participant whose
// decided transactions landed in every shard and asserts the log
// replay repopulates all of them — recovery iterates the durable log,
// not any one shard.
func TestShardedRecoveryReplaySpansAllShards(t *testing.T) {
	const shards = 8
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rc")}, WithShards(shards))
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
		[]core.Resource{core.NewStaticResource("rs")}, WithShards(shards))
	coord.Start()
	sub.Start()
	defer sub.Stop()

	txs := make([]string, shards)
	ctx := context.Background()
	for i := range txs {
		txs[i] = txInShard(t, coord, i)
		out, err := coord.Commit(ctx, txs[i], []string{"S"})
		if err != nil || out != Committed {
			t.Fatalf("commit %s: %v %v", txs[i], out, err)
		}
	}

	coord.Crash()
	re := coord.Restarted(net.Endpoint("C2"), WithShards(shards))
	re.Start()
	defer re.Stop()

	decided := re.Decided()
	for _, tx := range txs {
		committed, ok := decided[tx]
		if !ok || !committed {
			t.Errorf("after replay, Decided()[%s] = %v, %v; want committed", tx, committed, ok)
		}
	}
}

// gatedEndpoint blocks every Send until the gate channel is fed,
// letting a test pile messages into the coalescer while a flush is in
// flight.
type gatedEndpoint struct {
	netsim.Endpoint
	gate chan struct{}
	mu   sync.Mutex
	pkts []protocol.Packet
}

func (g *gatedEndpoint) Send(to string, pkt protocol.Packet) error {
	<-g.gate
	g.mu.Lock()
	g.pkts = append(g.pkts, pkt)
	g.mu.Unlock()
	return g.Endpoint.Send(to, pkt)
}

func (g *gatedEndpoint) packets() []protocol.Packet {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]protocol.Packet(nil), g.pkts...)
}

// TestCoalescerBatchesWhileSendInFlight pins the coalescing writer's
// contract: messages enqueued while a flush is blocked on the wire
// ride the next packet together, and every message after the first in
// a batch is counted as piggybacked.
func TestCoalescerBatchesWhileSendInFlight(t *testing.T) {
	net := netsim.NewChanNetwork()
	gated := &gatedEndpoint{Endpoint: net.Endpoint("C"), gate: make(chan struct{})}
	reg := metrics.New()
	p := NewParticipant("C", gated, wal.New(wal.NewMemStore()), nil, WithMetrics(reg))
	net.Endpoint("S")

	// First send: the flusher picks it up and blocks in gated Send.
	if err := p.send("S", protocol.Message{Type: protocol.MsgPrepare, Tx: "t0"}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Second, func() bool {
		p.out.mu.Lock()
		defer p.out.mu.Unlock()
		q := p.out.peers["S"]
		return q != nil && q.active && len(q.pending) == 0 // flusher holds t0, blocked on the gate
	})
	// Pile five more behind the blocked flush.
	const extra = 5
	for i := 1; i <= extra; i++ {
		if err := p.send("S", protocol.Message{Type: protocol.MsgPrepare, Tx: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, time.Second, func() bool {
		p.out.mu.Lock()
		defer p.out.mu.Unlock()
		return len(p.out.peers["S"].pending) == extra
	})
	// Release the gate for both flushes.
	close(gated.gate)
	waitUntil(t, time.Second, func() bool { return len(gated.packets()) == 2 })

	pkts := gated.packets()
	if n := len(pkts[0].Messages); n != 1 {
		t.Errorf("first packet carried %d messages, want 1", n)
	}
	if n := len(pkts[1].Messages); n != extra {
		t.Errorf("second packet carried %d messages, want %d (coalesced batch)", n, extra)
	}
	for i, m := range pkts[1].Messages {
		want := fmt.Sprintf("t%d", i+1)
		if m.Tx != want {
			t.Errorf("batch[%d] = %s, want %s (FIFO order)", i, m.Tx, want)
		}
	}

	snap := reg.Snapshot()
	nc := snap.Nodes["C"]
	if nc.MessagesSent != extra+1 {
		t.Errorf("MessagesSent = %d, want %d", nc.MessagesSent, extra+1)
	}
	// Packet opens: t0's packet and the first queued message's packet.
	if nc.PacketsSent != 2 {
		t.Errorf("PacketsSent = %d, want 2 (4 of 6 messages piggybacked)", nc.PacketsSent)
	}
	p.Stop()
}

// TestStopFlushesCoalescedMessages: messages enqueued before Stop
// reach the wire before the endpoint closes.
func TestStopFlushesCoalescedMessages(t *testing.T) {
	net := netsim.NewChanNetwork()
	p := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()), nil)
	s := net.Endpoint("S")
	const n = 8
	for i := 0; i < n; i++ {
		if err := p.send("S", protocol.Message{Type: protocol.MsgPrepare, Tx: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	got := 0
	for got < n {
		select {
		case pkt := <-s.Recv():
			got += len(pkt.Messages)
		default:
			t.Fatalf("only %d of %d messages delivered after Stop", got, n)
		}
	}
}

// peerGatedEndpoint holds every Send to one peer until the test
// releases it or the endpoint closes, and logs completed sends and the
// close in the order they happen.
type peerGatedEndpoint struct {
	netsim.Endpoint
	gated     string
	release   chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	mu        sync.Mutex
	events    []string
}

func (e *peerGatedEndpoint) Send(to string, pkt protocol.Packet) error {
	if to == e.gated {
		select {
		case <-e.release:
		case <-e.closed:
			return netsim.ErrClosed
		}
	}
	e.note("send:" + to)
	return e.Endpoint.Send(to, pkt)
}

func (e *peerGatedEndpoint) Close() error {
	e.note("close")
	e.closeOnce.Do(func() { close(e.closed) })
	return e.Endpoint.Close()
}

func (e *peerGatedEndpoint) note(ev string) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

func (e *peerGatedEndpoint) log() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.events...)
}

// TestAfterSendFailpointWaitsForEveryPeer pins the after-send barrier:
// a crash at after-send:X waits until every message enqueued before
// it, to any peer, has reached the endpoint. A message to peer A is
// stuck in Send when the participant crashes after sending to B; the
// crash must wait for A's message instead of discarding it.
func TestAfterSendFailpointWaitsForEveryPeer(t *testing.T) {
	net := netsim.NewChanNetwork()
	ep := &peerGatedEndpoint{Endpoint: net.Endpoint("C"), gated: "A",
		release: make(chan struct{}), closed: make(chan struct{})}
	net.Endpoint("A")
	net.Endpoint("B")
	p := NewParticipant("C", ep, wal.New(wal.NewMemStore()), nil,
		WithFailpoint(func(point string) bool { return point == "after-send:Commit" }))

	if err := p.send("A", protocol.Message{Type: protocol.MsgPrepare, Tx: "t1"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.send("B", protocol.Message{Type: protocol.MsgCommit, Tx: "t2"}) }()
	// A crash that does not wait for A closes the endpoint at once; the
	// barrier holds it until A's Send is released.
	select {
	case <-ep.closed:
	case <-time.After(50 * time.Millisecond):
	}
	close(ep.release)
	if err := <-done; !errors.Is(err, ErrCrashed) {
		t.Fatalf("send at the failpoint = %v, want ErrCrashed", err)
	}
	events := ep.log()
	for _, ev := range events {
		if ev == "send:A" {
			return
		}
		if ev == "close" {
			break
		}
	}
	t.Fatalf("endpoint events %v: A's message did not reach the endpoint before the crash", events)
}
