package live

import (
	"encoding/base64"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestReplayLegacyLog restarts a participant over a log written in the
// record forms already on disk — the bytes spelled out, not produced
// by the codec — and checks what the restart rebuilt: the decided
// table, the pinned entries, the in-doubt set, and the messages the
// resume actions send.
func TestReplayLegacyLog(t *testing.T) {
	b64 := base64.StdEncoding.EncodeToString
	store := wal.NewMemStore()
	for _, r := range []wal.Record{
		// An undecided PN coordinator: abort, and tell its membership.
		{Tx: "C:1", Node: "C", Kind: "Pending", Data: []byte("S1,S2")},
		// A PA delegation with no decision: ask the agent again.
		{Tx: "C:2", Node: "C", Kind: "Prepared", Data: []byte("dlg1 PresumeAbort A S1")},
		// A 1PC commit with its voters' redo and no End: resend each
		// voter its redo.
		{Tx: "C:3", Node: "C", Kind: "Committed", Data: []byte("opc1 s=S1,S2 r=" + b64([]byte("redo1")) + "|" + b64([]byte("redo2")))},
		// Paxos acceptor state for an undecided transaction.
		{Tx: "C:4", Node: "C", Kind: "PaxAccept", Data: []byte("pax1 b=0 a=C,S1,S2 p=C,S1,S2 s=C:0:0|S1:0:0|S2:0:1")},
		{Tx: "C:4", Node: "C", Kind: "PaxPromise", Data: []byte("pax1 b=3 a=C,S1,S2 p=C,S1,S2 s=C:0:0|S1:0:0|S2:0:1")},
		// A prepared subordinate with no decision: in doubt.
		{Tx: "B:5", Node: "C", Kind: "Prepared", Data: []byte("PresumeAbort")},
		// A finished commit: decided, not pinned.
		{Tx: "C:6", Node: "C", Kind: "Committed", Data: []byte("S1")},
		{Tx: "C:6", Node: "C", Kind: "End"},
		// Another node's record in a shared log, and a resource
		// manager's: neither is this participant's memory.
		{Tx: "C:7", Node: "S1", Kind: "Prepared", Data: []byte("PresumeAbort")},
		{Tx: "C:8", Node: "C", Kind: "LRMUpdate", Data: []byte("k=v")},
		// A PN and a PC coordinator whose every subordinate voted
		// read-only: the pre-prepare record, then End, and no decision
		// record, since a read-only round writes none. The caller was
		// told committed; the restart must not abort them.
		{Tx: "C:9", Node: "C", Kind: "Pending", Data: []byte("S1,S2")},
		{Tx: "C:9", Node: "C", Kind: "End"},
		{Tx: "C:10", Node: "C", Kind: "Collecting", Data: []byte("S1,S2")},
		{Tx: "C:10", Node: "C", Kind: "End"},
	} {
		r.Forced = true
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}

	net := netsim.NewChanNetwork()
	type sent struct {
		to string
		m  protocol.Message
	}
	got := make(chan sent, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range []string{"S1", "S2", "A"} {
		ep := net.Endpoint(name)
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				select {
				case pkt, ok := <-ep.Recv():
					if !ok {
						return
					}
					for _, m := range pkt.Messages {
						select {
						case got <- sent{name, m}:
						default:
						}
					}
				case <-stop:
					return
				}
			}
		}(name)
	}
	defer func() { close(stop); wg.Wait() }()

	log := wal.New(store)
	p := NewParticipant("C", net.Endpoint("C"), log, nil,
		WithVariant(protocol.VariantPA), WithTimeout(time.Minute, time.Minute))
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// The messages the resume actions owe, first sends only.
	want := map[string]string{
		"S1 Abort C:1":           "",
		"S2 Abort C:1":           "",
		"A Prepare C:2 delegate": "",
		"S1 Commit C:3":          "redo1",
		"S2 Commit C:3":          "redo2",
	}
	seen := map[string]string{}
	deadline := time.After(5 * time.Second)
	for len(seen) < len(want) {
		select {
		case s := <-got:
			key := s.to + " " + s.m.Type.String() + " " + s.m.Tx
			if s.m.Delegate && s.m.Repeat && s.m.Presume == protocol.VariantPA {
				key += " delegate"
			}
			if _, ok := want[key]; ok {
				if _, dup := seen[key]; !dup {
					seen[key] = string(s.m.Payload)
				}
			} else {
				t.Errorf("unexpected message to %s: %+v", s.to, s.m)
			}
		case <-deadline:
			t.Fatalf("after 5s sent %v, want %v", seen, want)
		}
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("sent %v, want %v", seen, want)
	}
	// Nothing else follows: the resume actions sent what they owe at
	// Start, so a stray message (an Abort of C:9 or C:10) is in flight
	// by now.
	grace := time.After(200 * time.Millisecond)
	for drained := false; !drained; {
		select {
		case s := <-got:
			if s.m.Tx != "C:2" { // the agent may be asked again
				t.Errorf("unexpected message to %s: %+v", s.to, s.m)
			}
		case <-grace:
			drained = true
		}
	}

	pinned := func(tx string) (committed, known, isPinned bool) {
		sh := p.shardFor(tx)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		d, known := sh.decidedLocked(tx)
		_, isPinned = sh.pinned[tx]
		return d.committed(), known, isPinned
	}
	for _, c := range []struct {
		tx                       string
		committed, known, pinned bool
	}{
		{"C:1", false, true, true}, // aborted now, waiting on S1 and S2
		{"C:2", false, false, false},
		{"C:3", true, true, true}, // waiting on the 1PC voters' acks
		{"C:4", false, false, false},
		{"B:5", false, false, false},
		{"C:6", true, true, false}, // End: it ages
		{"C:7", false, false, false},
		{"C:9", false, false, false}, // forgotten: End proves it finished
		{"C:10", false, false, false},
	} {
		committed, known, isPinned := pinned(c.tx)
		if committed != c.committed || known != c.known || isPinned != c.pinned {
			t.Errorf("%s: decided=%v committed=%v pinned=%v, want %v %v %v",
				c.tx, known, committed, isPinned, c.known, c.committed, c.pinned)
		}
	}
	if n := p.PinnedDecisions(); n != 2 {
		t.Errorf("%d pinned entries, want 2", n)
	}

	inDoubt, err := p.InDoubtTxs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inDoubt, []string{"C:2", "B:5"}) {
		t.Errorf("InDoubtTxs = %v, want [C:2 B:5]", inDoubt)
	}
	sub := p.liveState("B:5")
	p.call(sub, func() {
		if !sub.sub.Prepared || sub.sub.Presume != protocol.VariantPA {
			t.Errorf("B:5 reinstated prepared=%v presume=%v, want prepared under PA", sub.sub.Prepared, sub.sub.Presume)
		}
	})

	acc := p.liveState("C:4")
	var states []protocol.PaxosInstanceState
	var bundled, promised bool
	p.call(acc, func() {
		ps := p.paxos(acc)
		states, bundled = ps.States(), ps.Bundled()
		_, promised = ps.Promise(3) // refused: the restored promise is 3
	})
	if len(states) != 3 || states[2].Vote != protocol.VoteNo || !bundled || promised {
		t.Errorf("C:4 acceptor restored states=%v bundled=%v, re-promised 3=%v", states, bundled, promised)
	}

	// The forgotten PN coordination was decided abort, and the record
	// names the subordinates owed an ack.
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	var abort *wal.Record
	for i, r := range recs {
		if r.Tx == "C:1" && r.Kind == protocol.RecAborted {
			abort = &recs[i]
		}
		if (r.Tx == "C:9" || r.Tx == "C:10") && r.Kind == protocol.RecAborted {
			t.Errorf("%s: the restart wrote %+v after its End", r.Tx, r)
		}
	}
	if abort == nil || string(abort.Data) != "S1,S2" || !abort.Forced {
		t.Errorf("C:1 abort record = %+v, want a forced Aborted naming S1,S2", abort)
	}
}

// failingStore is stable storage whose recovery scan fails.
type failingStore struct{ wal.Store }

var errUnreadable = errors.New("segment unreadable")

func (failingStore) Records() ([]wal.Record, error) { return nil, errUnreadable }

// TestStartFailsOnUnreadableLog: a participant whose log cannot be read
// must not serve with an empty memory — as a PA coordinator it would
// answer a prepared subordinate's inquiry "abort" against a commit on
// disk.
func TestStartFailsOnUnreadableLog(t *testing.T) {
	net := netsim.NewChanNetwork()
	p := NewParticipant("C", net.Endpoint("C"), wal.New(failingStore{wal.NewMemStore()}), nil)
	err := p.Start()
	if !errors.Is(err, errUnreadable) {
		t.Fatalf("Start = %v, want the log's error", err)
	}
	p.Stop()
}
