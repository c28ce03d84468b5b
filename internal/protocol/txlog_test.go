package protocol

import (
	"reflect"
	"testing"

	"repro/internal/wal"
)

// TestLogRecordGolden pins the exact bytes of every payload form the
// live runtime writes: they are on disk in existing logs, and a restart
// must read them back as they were written.
func TestLogRecordGolden(t *testing.T) {
	paxos := PaxosTx{Self: "S1"}
	paxos.Adopt([]string{"C", "S1", "S2"}, []string{"C", "S1", "S2"})
	prepare := paxos.Meta(0, "C")
	cases := []struct {
		name string
		rec  LogRecord
		want string
	}{
		{"pending subordinates", LogRecord{Kind: RecPending, Subs: []string{"S1", "S2"}}, "S1,S2"},
		{"collecting subordinates", LogRecord{Kind: RecCollecting, Subs: []string{"S1"}}, "S1"},
		{"prepared PresumeNothing", LogRecord{Kind: RecPrepared, Presume: VariantBaseline}, "PresumeNothing"},
		{"prepared PresumeAbort", LogRecord{Kind: RecPrepared, Presume: VariantPA}, "PresumeAbort"},
		{"prepared PresumePending", LogRecord{Kind: RecPrepared, Presume: VariantPN}, "PresumePending"},
		{"prepared PresumeCommit", LogRecord{Kind: RecPrepared, Presume: VariantPC}, "PresumeCommit"},
		{"prepared PresumePaxos", LogRecord{Kind: RecPrepared, Presume: VariantPaxos}, "PresumePaxos"},
		{"prepared Presume1PC", LogRecord{Kind: RecPrepared, Presume: Variant1PC}, "Presume1PC"},
		{"delegation", LogRecord{Kind: RecPrepared, Presume: VariantPN, Agent: "A", Subs: []string{"S1", "S2"}}, "dlg1 PresumePending A S1 S2"},
		{"delegation, no other yes-voter", LogRecord{Kind: RecPrepared, Presume: VariantPA, Agent: "A"}, "dlg1 PresumeAbort A"},
		{"committed ackers", LogRecord{Kind: RecCommitted, Subs: []string{"S1", "S2"}}, "S1,S2"},
		{"aborted ackers", LogRecord{Kind: RecAborted, Subs: []string{"C"}}, "C"},
		{"1PC redo", LogRecord{Kind: RecCommitted, OnePhase: true, Subs: []string{"S1", "S2"}, Redos: [][]byte{{1, 2}, nil}}, "opc1 s=S1,S2 r=AQI=|"},
		{"paxos prepared", LogRecord{Kind: RecPrepared, Paxos: &prepare}, "pax1 b=0 l=C a=C,S1,S2 p=C,S1,S2"},
		{"paxos accept", paxos.Record(PaxosStep{Kind: RecPaxAccept, Ballot: 0, States: []PaxosInstanceState{
			{Instance: "C", Ballot: 0, Vote: VoteYes}, {Instance: "S1", Ballot: 0, Vote: VoteNo}}}),
			"pax1 b=0 a=C,S1,S2 p=C,S1,S2 s=C:0:0|S1:0:1"},
		{"paxos promise", paxos.Record(PaxosStep{Kind: RecPaxPromise, Ballot: 7}), "pax1 b=7 a=C,S1,S2 p=C,S1,S2"},
		{"end", LogRecord{Kind: RecEnd}, ""},
	}
	for _, c := range cases {
		got := c.rec.Encode()
		if string(got) != c.want {
			t.Errorf("%s: encodes %q, want %q", c.name, got, c.want)
		}
		if c.want == "" && got != nil {
			t.Errorf("%s: empty payload encodes non-nil", c.name)
		}
		back, err := DecodeLogRecord(c.rec.Kind, []byte(c.want))
		if err != nil {
			t.Errorf("%s: decode %q: %v", c.name, c.want, err)
			continue
		}
		if string(back.Encode()) != c.want {
			t.Errorf("%s: decode %q then encode = %q", c.name, c.want, back.Encode())
		}
	}

	// Read back as the restart reads them.
	if r, _ := DecodeLogRecord(RecPrepared, []byte("dlg1 PresumePending A S1 S2")); r.Presume != VariantPN || r.Agent != "A" || !reflect.DeepEqual(r.Subs, []string{"S1", "S2"}) {
		t.Errorf("delegation decodes to %+v", r)
	}
	if r, _ := DecodeLogRecord(RecPrepared, []byte(cases[13].want)); r.Presume != VariantPaxos || r.Paxos == nil || r.Paxos.Leader != "C" {
		t.Errorf("paxos Prepared decodes to %+v", r)
	}
	if r, _ := DecodeLogRecord(RecCommitted, []byte(cases[12].want)); !r.OnePhase || !reflect.DeepEqual(r.Redos, [][]byte{{1, 2}, nil}) {
		t.Errorf("1PC decision decodes to %+v", r)
	}
	// A Prepared record without a payload presumes nothing; one this
	// codec cannot read is an error (ReplayLog then keeps its kind).
	if r, err := DecodeLogRecord(RecPrepared, nil); err != nil || r.Presume != VariantBaseline {
		t.Errorf("empty Prepared = %+v, %v", r, err)
	}
	for _, other := range []string{"PresumeAbort", "pax1 b=0", ""} {
		if r, err := DecodeLogRecord(RecPrepared, []byte(other)); err != nil || r.Agent != "" {
			t.Errorf("%q decodes to %+v (%v), not a vote", other, r, err)
		}
	}
	for _, bad := range []string{"garbage", "dlg1 PresumeAbort", "dlg1 NoSuch A S1", "pax1 b=x", "opc1 r=!"} {
		if r, err := DecodeLogRecord(RecPrepared, []byte(bad)); err == nil {
			t.Errorf("%q decoded as %+v", bad, r)
		}
	}
	if _, err := DecodeLogRecord(RecCommitted, []byte("S1 S2")); err == nil {
		t.Error("a list with a space decoded")
	}
}

// TestLogRecordSimulatorKeys covers the keys only the simulator sets.
func TestLogRecordSimulatorKeys(t *testing.T) {
	for _, c := range []struct {
		rec  LogRecord
		want string
	}{
		{LogRecord{Kind: RecHeuristic, Coord: "N00", Commit: true}, "c=N00 h=1"},
		{LogRecord{Kind: RecAgentPending, Coord: "N00"}, "c=N00"},
		{LogRecord{Kind: RecPrepared, Presume: VariantPA, Coord: "N00", Subs: []string{"N02", "N03"}}, "PresumeAbort s=N02,N03 c=N00"},
		{LogRecord{Kind: RecPending, Presume: VariantPN, Agent: "N01", Subs: []string{"N01"}}, "dlg1 PresumePending N01 N01"},
		{LogRecord{Kind: RecPrepared, Presume: VariantPaxos, Coord: "N00", Paxos: &PaxosMeta{Acceptors: []string{"N00"}, Participants: []string{"N00"}}}, "pax1 b=0 a=N00 p=N00 c=N00"},
		{LogRecord{Kind: RecCommitted, Coord: "N00", Subs: []string{"N02"}}, "N02 c=N00"},
	} {
		if got := string(c.rec.Encode()); got != c.want {
			t.Errorf("%+v encodes %q, want %q", c.rec, got, c.want)
		}
		back, err := DecodeLogRecord(c.rec.Kind, []byte(c.want))
		if err != nil || !reflect.DeepEqual(back, c.rec) {
			t.Errorf("%q decodes to %+v (%v), want %+v", c.want, back, err, c.rec)
		}
	}
}

// FuzzLogRecord: decoding arbitrary bytes never panics, and a record
// that decodes encodes to bytes that decode to the same record.
func FuzzLogRecord(f *testing.F) {
	kinds := []string{RecPending, RecCollecting, RecAgentPending, RecPrepared, RecCommitted,
		RecAborted, RecEnd, RecHeuristic, RecPaxAccept, RecPaxPromise, "LRMUpdate"}
	for i, seed := range []string{"S1,S2", "S1", "", "AgentPending", "PresumeAbort", "dlg1 PresumePending A S1 S2",
		"opc1 s=S1,S2 r=AQI=|", "", "c=N00 h=1", "pax1 b=0 a=C,S1 p=C,S1 s=C:0:0", "pax1 b=3 l=C", "x"} {
		f.Add(uint8(i), []byte(seed))
	}
	f.Add(uint8(3), []byte("PresumeAbort s=N02,N03 c=N00"))
	f.Add(uint8(3), []byte("dlg1 PresumeAbort"))
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		kind := kinds[int(k)%len(kinds)]
		r, err := DecodeLogRecord(kind, data) // must not panic
		if err != nil {
			return
		}
		enc := r.Encode()
		again, err := DecodeLogRecord(kind, enc)
		if err != nil {
			t.Fatalf("%s %q decoded to %+v, whose encoding %q does not decode: %v", kind, data, r, enc, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("%s %q: round trip drift:\n got %+v\nwant %+v", kind, data, again, r)
		}
	})
}

// TestReplayLog pins the fold: per transaction in first-appearance
// order, the last record of each kind, only self's transaction-manager
// records, the highest promise, and an unreadable payload kept as its
// kind.
func TestReplayLog(t *testing.T) {
	rec := func(tx, node, kind, data string) wal.Record {
		return wal.Record{Tx: tx, Node: node, Kind: kind, Data: []byte(data)}
	}
	recs := []wal.Record{
		rec("T2", "C", RecPending, "S1,S2"),
		rec("T1", "C", "LRMUpdate", "k=v"),
		rec("T1", "C", RecPrepared, "PresumeAbort"),
		rec("T1", "S9", RecCommitted, ""),
		rec("T3", "C", RecPaxPromise, "pax1 b=2 a=C p=C"),
		rec("T3", "C", RecPaxAccept, "pax1 b=0 a=C p=C s=C:0:0"),
		rec("T3", "C", RecPaxPromise, "pax1 b=5 a=C p=C s=C:0:0"),
		rec("T3", "C", RecPaxPromise, "pax1 b=4 a=C p=C"),
		rec("T2", "C", RecAborted, "S1"),
		rec("T2", "C", RecCommitted, "S1,S2"),
		rec("T4", "C", RecPrepared, "NoSuchPresumption"),
		rec("T2", "C", RecEnd, ""),
	}
	got := ReplayLog(recs, "C")
	var order []string
	for _, l := range got {
		order = append(order, l.Tx)
	}
	if !reflect.DeepEqual(order, []string{"T2", "T1", "T3", "T4"}) {
		t.Fatalf("order = %v", order)
	}
	t2, t1, t3, t4 := got[0], got[1], got[2], got[3]
	if d := t2.Decision; d == nil || d.Kind != RecCommitted || !reflect.DeepEqual(d.Subs, []string{"S1", "S2"}) ||
		!t2.Ended || t2.Pre == nil || t2.InDoubt() {
		t.Errorf("T2 = %+v", t2)
	}
	if t1.Decision != nil || t1.Prepared == nil || t1.Prepared.Presume != VariantPA || !t1.InDoubt() {
		t.Errorf("T1 = %+v (another node's decision must not count)", t1)
	}
	if !t3.Acceptor || len(t3.Accepts) != 1 || t3.Promise == nil || t3.Promise.Ballot != 5 {
		t.Errorf("T3 = %+v", t3)
	}
	px := PaxosTx{Self: "C"}
	t3.RestoreAcceptor(&px)
	if st := px.States(); len(st) != 1 || st[0].Ballot != 0 || !px.Bundled() {
		t.Errorf("restored acceptor: states %+v bundled %v", st, px.Bundled())
	}
	if t4.Prepared == nil || t4.Prepared.Presume != VariantBaseline || !t4.InDoubt() {
		t.Errorf("T4 = %+v: an unreadable Prepared record must still count, presuming nothing", t4)
	}
}
