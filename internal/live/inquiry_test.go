package live

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

func TestPresumeDataRoundTrip(t *testing.T) {
	// The payload bytes are on disk in existing logs: pin them exactly.
	want := map[protocol.Variant]string{
		protocol.VariantBaseline: "PresumeNothing",
		protocol.VariantPA:       "PresumeAbort",
		protocol.VariantPN:       "PresumePending",
		protocol.VariantPC:       "PresumeCommit",
		protocol.VariantPaxos:    "PresumePaxos",
		protocol.Variant1PC:      "Presume1PC",
	}
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		if got := string(presumeData(v)); got != want[v] {
			t.Errorf("presumeData(%v) = %q, want %q", v, got, want[v])
		}
		got, ok := presumeFromData(presumeData(v))
		if !ok || got != v {
			t.Errorf("round trip of %v = %v, %v", v, got, ok)
		}
	}
	if len(want) != int(protocol.Variant1PC)+1 {
		t.Fatalf("pinned %d payloads for %d variants", len(want), int(protocol.Variant1PC)+1)
	}
	if _, ok := presumeFromData(nil); ok {
		t.Error("empty payload decoded as a known presumption")
	}
	if _, ok := presumeFromData([]byte("garbage")); ok {
		t.Error("garbage payload decoded as a known presumption")
	}
}

// TestLiveInquiryDuringCollectionAnswersInProgress pins the fix for
// the inquiry race: while the coordinator is still collecting votes
// it must answer InProgress, never the variant's presumption — the
// decision may yet go the other way.
func TestLiveInquiryDuringCollectionAnswersInProgress(t *testing.T) {
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")},
		WithTimeout(500*time.Millisecond, 100*time.Millisecond))
	coord.Start()
	defer coord.Stop()
	// S exists but never answers: the commit stalls in vote collection.
	net.Endpoint("S")

	tx := protocol.TxID{Origin: "C", Seq: 60}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = coord.Commit(context.Background(), tx.String(), []string{"S"})
	}()
	waitUntil(t, time.Second, func() bool {
		_, ok := coord.lookup(tx.String())
		return ok
	})

	q := net.Endpoint("Q")
	if err := q.Send("C", protocol.Packet{From: "Q", To: "C",
		Messages: []protocol.Message{{Type: protocol.MsgInquire, Tx: tx.String()}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-q.Recv():
		m := pkt.Messages[0]
		if m.Type != protocol.MsgOutcome || m.Outcome != protocol.OutcomeInProgress {
			t.Fatalf("answer = %s, want OutcomeInProgress", m.Label())
		}
	case <-time.After(time.Second):
		t.Fatal("no inquiry answer")
	}
	<-done
}

// TestLiveCoordinatorRestartAnswersFromLog pins the restart half of
// the inquiry fix: a PC coordinator that crashed mid-collection left
// a Collecting record and no decision. On restart it must resolve the
// transaction to abort and answer inquiries accordingly — the naive
// commit presumption would violate atomicity.
func TestLiveCoordinatorRestartAnswersFromLog(t *testing.T) {
	net := netsim.NewChanNetwork()
	tx := protocol.TxID{Origin: "C", Seq: 80}.String()

	coordStore := wal.NewMemStore()
	coordStore.Append(wal.Record{Tx: tx, Node: "C", Kind: "Collecting", Data: []byte("S"), Forced: true})
	coordStore.Sync()
	coordLog := wal.New(coordStore)
	coord := NewParticipant("C", net.Endpoint("C"), coordLog, nil, WithVariant(protocol.VariantPC))

	subStore := wal.NewMemStore()
	subStore.Append(wal.Record{Tx: tx, Node: "S", Kind: "Prepared",
		Data: presumeData(protocol.VariantPC), Forced: true})
	subStore.Sync()
	subLog := wal.New(subStore)
	sub := NewParticipant("S", net.Endpoint("S"), subLog,
		[]protocol.Resource{protocol.NewStaticResource("rs")}, WithVariant(protocol.VariantPC))

	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	// The restarted coordinator's replay must have forced its abort.
	if committed, decided := outcomeAt(t, coordLog, "C", tx); !decided || committed {
		t.Fatalf("coordinator replay: decided=%v committed=%v, want aborted", decided, committed)
	}

	// The prepared subordinate resolves to abort — by the proactive
	// notification from replay or by inquiry, never by presuming
	// commit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.RecoverInDoubt(ctx, "C"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		committed, decided := outcomeAt(t, subLog, "S", tx)
		return decided && !committed
	})
}

// TestLivePreparedRecordCarriesPresumption asserts the subordinate
// persists the presumption the coordinator announced (here PC, while
// the subordinate itself is configured PA) so recovery replays the
// right variant's rules.
func TestLivePreparedRecordCarriesPresumption(t *testing.T) {
	net := netsim.NewChanNetwork()
	subLog := wal.New(wal.NewMemStore())
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithVariant(protocol.VariantPC))
	sub := NewParticipant("S", net.Endpoint("S"), subLog,
		[]protocol.Resource{protocol.NewStaticResource("rs")}) // configured PA
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 81}
	if out, err := coord.Commit(context.Background(), tx.String(), []string{"S"}); err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	recs, err := subLog.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Node != "S" || r.Kind != "Prepared" {
			continue
		}
		if pr, ok := presumeFromData(r.Data); !ok || pr != protocol.VariantPC {
			t.Fatalf("Prepared payload decodes to %v (ok=%v), want PC", pr, ok)
		}
		return
	}
	t.Fatal("no Prepared record in the subordinate log")
}

// TestLiveLateVoteAfterDecisionDropped pins the table-leak fix: a
// vote retransmitted after the coordinator decided and forgot the
// transaction must be dropped, not buffered in a fresh state entry.
func TestLiveLateVoteAfterDecisionDropped(t *testing.T) {
	coord, _, _, kv1, _, net := setupChanTrio(t)
	ctx := context.Background()
	tx := protocol.TxID{Origin: "C", Seq: 70}
	if err := kv1.Put(ctx, tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if out, err := coord.Commit(ctx, tx.String(), []string{"S1", "S2"}); err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}

	late := net.Endpoint("X")
	if err := late.Send("C", protocol.Packet{From: "X", To: "C",
		Messages: []protocol.Message{{Type: protocol.MsgVote, Tx: tx.String(), Vote: protocol.VoteYes}}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	_, leaked := coord.lookup(tx.String())
	if leaked {
		t.Fatal("late vote for a decided transaction recreated its state entry")
	}
}

// TestLiveLoglessVoterInDoubt pins the one in-doubt set: a subordinate
// that voted yes under a logless-vote variant has no Prepared record
// for the log scan to find, yet InDoubtTxs reports it until the
// outcome lands.
func TestLiveLoglessVoterInDoubt(t *testing.T) {
	net := netsim.NewChanNetwork()
	subLog := wal.New(wal.NewMemStore())
	sub := NewParticipant("S", net.Endpoint("S"), subLog,
		[]protocol.Resource{protocol.NewStaticResource("rs")})
	sub.Start()
	defer sub.Stop()
	c := net.Endpoint("C")

	tx := protocol.TxID{Origin: "C", Seq: 82}.String()
	send := func(m protocol.Message) {
		t.Helper()
		if err := c.Send("S", protocol.Packet{From: "C", To: "S", Messages: []protocol.Message{m}}); err != nil {
			t.Fatal(err)
		}
	}
	send(protocol.Message{Type: protocol.MsgPrepare, Tx: tx, Presume: protocol.Variant1PC})
	select {
	case pkt := <-c.Recv():
		if m := pkt.Messages[0]; m.Type != protocol.MsgVote || m.Vote != protocol.VoteYes {
			t.Fatalf("answer = %s, want a yes vote", m.Label())
		}
	case <-time.After(time.Second):
		t.Fatal("no vote")
	}
	if hasRecord(t, subLog, "Prepared") {
		t.Fatal("a logless voter forced a Prepared record")
	}
	if ids, err := sub.InDoubtTxs(); err != nil || len(ids) != 1 || ids[0] != tx {
		t.Fatalf("InDoubtTxs = %v, %v; want [%s]", ids, err, tx)
	}

	send(protocol.Message{Type: protocol.MsgCommit, Tx: tx})
	waitUntil(t, time.Second, func() bool {
		ids, err := sub.InDoubtTxs()
		return err == nil && len(ids) == 0
	})
}
