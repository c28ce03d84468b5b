package live

import (
	"context"
	"maps"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestPresumeDataRoundTrip pins the Prepared payload a subordinate
// forces for each variant — the bytes are on disk in existing logs —
// and checks a restart reads each back as the presumption it was
// written with.
func TestPresumeDataRoundTrip(t *testing.T) {
	want := map[protocol.Variant]string{
		protocol.VariantBaseline: "PresumeNothing",
		protocol.VariantPA:       "PresumeAbort",
		protocol.VariantPN:       "PresumePending",
		protocol.VariantPC:       "PresumeCommit",
		protocol.VariantPaxos:    "PresumePaxos",
		protocol.Variant1PC:      "Presume1PC",
	}
	if len(want) != int(protocol.Variant1PC)+1 {
		t.Fatalf("pinned %d payloads for %d variants", len(want), int(protocol.Variant1PC)+1)
	}
	payloads := make(map[string][]byte)
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		// As the subordinate builds its yes vote's record.
		b := protocol.LogRecord{Kind: protocol.RecPrepared, Presume: v}.Encode()
		if string(b) != want[v] {
			t.Errorf("Prepared payload of %v = %q, want %q", v, b, want[v])
		}
		payloads[protocol.TxID{Origin: "C", Seq: uint64(v) + 1}.String()] = b
	}
	empty := protocol.TxID{Origin: "C", Seq: 100}.String()
	garbage := protocol.TxID{Origin: "C", Seq: 101}.String()
	payloads[empty] = nil
	payloads[garbage] = []byte("garbage")

	prepared := restartPrepared(t, "S", payloads)
	for v := protocol.VariantBaseline; v <= protocol.Variant1PC; v++ {
		tx := protocol.TxID{Origin: "C", Seq: uint64(v) + 1}.String()
		if r := prepared[tx]; r == nil || r.Presume != v {
			t.Errorf("%s written as %v reads back as %+v", tx, v, r)
		}
	}
	// A payload that names no presumption presumes nothing, and is
	// still in doubt.
	for _, tx := range []string{empty, garbage} {
		if r := prepared[tx]; r == nil || r.Presume != protocol.VariantBaseline || r.Agent != "" {
			t.Errorf("%s (%q) reads back as %+v", tx, payloads[tx], r)
		}
	}
}

// restartPrepared logs one forced Prepared record per transaction for
// self, then reads the log as a restarting participant does and
// returns the in-doubt transactions' Prepared records.
func restartPrepared(t *testing.T, self string, payloads map[string][]byte) map[string]*protocol.LogRecord {
	t.Helper()
	store := wal.NewMemStore()
	for tx, data := range payloads {
		store.Append(wal.Record{Tx: tx, Node: self, Kind: protocol.RecPrepared, Data: data, Forced: true})
	}
	store.Sync()
	net := netsim.NewChanNetwork()
	p := NewParticipant(self, net.Endpoint(self), wal.New(store), nil)
	inDoubt, logs, err := p.scanInDoubt()
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != len(payloads) {
		t.Fatalf("in doubt after restart: %v, want %d transactions", inDoubt, len(payloads))
	}
	prepared := make(map[string]*protocol.LogRecord)
	for tx, l := range logs {
		prepared[tx] = l.Prepared
	}
	return prepared
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
	coordStore.Append(wal.Record{Tx: tx, Node: "C", Kind: protocol.RecCollecting, Data: []byte("S"), Forced: true})
	coordStore.Sync()
	coordLog := wal.New(coordStore)
	coord := NewParticipant("C", net.Endpoint("C"), coordLog, nil, WithVariant(protocol.VariantPC))

	subStore := wal.NewMemStore()
	subStore.Append(wal.Record{Tx: tx, Node: "S", Kind: protocol.RecPrepared,
		Data: []byte("PresumeCommit"), Forced: true})
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
		if r.Node != "S" || r.Kind != protocol.RecPrepared {
			continue
		}
		if pr, err := protocol.DecodeLogRecord(r.Kind, r.Data); err != nil || pr.Presume != protocol.VariantPC {
			t.Fatalf("Prepared payload decodes to %+v (%v), want PC", pr, err)
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

// TestLiveLoglessYesVoterAborted pins the runtime's side of a
// difference between the engines (DESIGN §3): under 1PC a leaf's yes
// vote is logless, yet when another leaf's no aborts the transaction
// the runtime counts the yes-voter as logged and it writes a lazy
// Aborted and an End; the coordinator, which owes no acks for the
// abort, writes an End. The simulator's yes-voter writes nothing
// (core.TestOnePhaseAbortedYesVoterWritesNothing), and
// analytic.AbortCostBoundByRole's 1PC ceiling is the runtime's pair.
func TestLiveLoglessYesVoterAborted(t *testing.T) {
	net := netsim.NewChanNetwork()
	logs := map[string]*wal.Log{}
	var parts []*Participant
	for _, n := range []struct {
		name string
		vote protocol.VoteValue
	}{{"C", protocol.VoteYes}, {"S1", protocol.VoteYes}, {"S2", protocol.VoteNo}} {
		logs[n.name] = wal.New(wal.NewMemStore())
		p := NewParticipant(n.name, net.Endpoint(n.name), logs[n.name],
			[]protocol.Resource{protocol.NewStaticResource("r@"+n.name, protocol.StaticVote(n.vote))},
			WithVariant(protocol.Variant1PC))
		p.Start()
		defer p.Stop()
		parts = append(parts, p)
	}
	tx := protocol.TxID{Origin: "C", Seq: 83}.String()
	if out, err := parts[0].Commit(context.Background(), tx, []string{"S1", "S2"}); err != nil || out != Aborted {
		t.Fatalf("commit = %v, %v; want aborted", out, err)
	}
	// kinds returns node's records for tx once its End is in, with
	// whether each was forced.
	kinds := func(node string) map[string]bool {
		var got map[string]bool
		waitUntil(t, 5*time.Second, func() bool {
			if err := logs[node].Sync(); err != nil {
				t.Fatal(err)
			}
			recs, err := logs[node].Records()
			if err != nil {
				t.Fatal(err)
			}
			got = map[string]bool{}
			for _, r := range recs {
				if r.Tx == tx {
					got[r.Kind] = r.Forced
				}
			}
			_, ended := got[protocol.RecEnd]
			return ended
		})
		return got
	}
	if got, want := kinds("S1"), map[string]bool{protocol.RecAborted: false, protocol.RecEnd: false}; !maps.Equal(got, want) {
		t.Errorf("S1 records (kind: forced) = %v, want %v", got, want)
	}
	if got, want := kinds("C"), map[string]bool{protocol.RecEnd: false}; !maps.Equal(got, want) {
		t.Errorf("C records (kind: forced) = %v, want %v", got, want)
	}
}
