package check

import (
	"context"
	"encoding/base64"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// restartRow is one crash point of one variant: the records the
// restarting node's log holds for transaction C:1, and what it comes
// back as on either engine.
type restartRow struct {
	name    string
	v       protocol.Variant
	node    string   // the restarting node: C coordinates S1 and S2 (and A, its last agent)
	recs    []string // "Kind payload"
	outcome string   // "commit", "abort", or "" for none known
	inDoubt bool
	pinned  bool     // the runtime's decided entry waits on acks (the simulator has no decided table)
	sent    []string // the first message to each peer: "<to> <kind>"
	simSent []string // what the simulator sends beyond sent
}

// restartRows crosses the crash points of a participant (before its
// yes, after it, after the outcome) and of a coordinator (before its
// decision, after it, after delegating) with the six variants.
func restartRows() []restartRow {
	var rows []restartRow
	redos := "opc1 s=S1,S2 r=" + base64.StdEncoding.EncodeToString([]byte("r1")) + "|" + base64.StdEncoding.EncodeToString([]byte("r2"))
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN,
		protocol.VariantPC, protocol.VariantPaxos, protocol.Variant1PC} {
		row := func(name, node string, recs ...string) restartRow {
			return restartRow{name: v.String() + "/" + name, v: v, node: node, recs: recs}
		}
		// The participant's records up to its yes vote: PN's leaf
		// forces AgentPending first; a logless 1PC yes writes nothing.
		var yes []string
		switch v {
		case protocol.VariantPaxos:
			yes = []string{"Prepared pax1 b=0 a=C,S1,S2 p=C,S1,S2 c=C"}
		case protocol.Variant1PC:
		case protocol.VariantPN:
			yes = []string{"AgentPending c=C", "Prepared " + v.PresumeName() + " c=C"}
		default:
			yes = []string{"Prepared " + v.PresumeName() + " c=C"}
		}

		// Before its yes: it knows nothing, or, after PN's AgentPending,
		// that it never voted, so the transaction aborted.
		r := row("participant/before-yes", "S1")
		if v == protocol.VariantPN {
			r.recs, r.outcome = yes[:1], "abort"
		}
		rows = append(rows, r)

		// After its yes: prepared, and it asks — its coordinator, or
		// under Paxos Commit the acceptors. A logless yes left nothing.
		r = row("participant/after-yes", "S1", yes...)
		switch v {
		case protocol.Variant1PC:
		case protocol.VariantPaxos:
			r.inDoubt, r.sent = true, []string{"C PaxosQuery", "S2 PaxosQuery"}
		default:
			r.inDoubt, r.sent = true, []string{"C Inquire"}
		}
		rows = append(rows, r)

		// After the outcome: the decision record survived, its lazy End
		// did not. The simulator acks its coordinator again at once when
		// the outcome is acknowledged; the runtime answers the resend.
		r = row("participant/after-outcome", "S1", append(yes, "Committed c=C")...)
		r.outcome = "commit"
		if v.Acks(true) {
			r.simSent = []string{"C Ack"}
		}
		rows = append(rows, r)

		// A coordinator before its decision: PN's and PC's pre-prepare
		// record names the membership, which is told the abort; the
		// others wrote nothing, so the presumption answers.
		r = row("coordinator/before-decision", "C")
		if kind := v.PrePrepare(); kind != "" {
			r.recs, r.outcome, r.pinned = []string{kind + " S1,S2"}, "abort", true
			r.sent = []string{"S1 Abort", "S2 Abort"}
		}
		rows = append(rows, r)

		// After its decision, before End: the decision goes again to the
		// members its record names, which owe acks (a 1PC record with
		// their redo); a PC commit and a Paxos decision name none.
		r = row("coordinator/after-decision", "C", "Committed S1,S2")
		r.outcome, r.pinned, r.sent = "commit", true, []string{"S1 Commit", "S2 Commit"}
		switch v {
		case protocol.Variant1PC:
			r.recs = []string{"Committed " + redos}
		case protocol.VariantPC, protocol.VariantPaxos:
			r.recs, r.pinned, r.sent = []string{"Committed"}, false, nil
		}
		rows = append(rows, r)

		// After delegating to its last agent: in doubt, it asks the
		// agent again.
		if v.Delegates() && v != protocol.VariantPaxos {
			r = row("coordinator/after-delegating", "C", "Prepared dlg1 "+v.PresumeName()+" A S1")
			if kind := v.PrePrepare(); kind != "" {
				r.recs = append([]string{kind + " S1,A"}, r.recs...)
			}
			r.inDoubt, r.sent = true, []string{"A delegation"}
			rows = append(rows, r)
		}
		// The simulator's single-partner delegation under PN and PC: the
		// pre-prepare record names the agent, which is also a member.
		if kind := v.PrePrepare(); kind != "" {
			r = row("coordinator/after-delegating-in-pre-prepare", "C", kind+" dlg1 "+v.PresumeName()+" A A")
			r.inDoubt, r.sent = true, []string{"A delegation"}
			rows = append(rows, r)
		}
	}
	return rows
}

// restartRecords is the log rows' records, forced, for node.
func restartRecords(t *testing.T, node string, recs []string) []wal.Record {
	t.Helper()
	out := make([]wal.Record, 0, len(recs))
	for _, r := range recs {
		kind, data, _ := strings.Cut(r, " ")
		if !protocol.IsTMRecord(kind) {
			t.Fatalf("bad record %q", r)
		}
		out = append(out, wal.Record{Tx: "C:1", Node: node, Kind: kind, Data: []byte(data), Forced: true})
	}
	return out
}

// sentLabel names a message for the rows: its receiver and type, or
// "delegation" for a repeated delegation in either engine's form.
func sentLabel(to string, m protocol.Message) string {
	if m.Repeat && (m.Delegate || m.LastAgent) {
		return to + " delegation"
	}
	return to + " " + m.Type.String()
}

// restartResult is what a restart left, on either engine.
type restartResult struct {
	outcome         string
	inDoubt, pinned bool
	sent            []string
}

// TestRestartTable restarts each engine from the same log records, one
// row per crash point and variant (Snippet 2's cases, crossed with the
// six variants), and checks what the node comes back as: the outcome
// it holds or its doubt, whether the runtime pins its decided entry,
// and the first message it sends each peer. Both drivers take their
// answer from one rule (protocol.TxLog.Comeback); the one difference
// left is the simulator's immediate re-ack after the outcome.
func TestRestartTable(t *testing.T) {
	for _, r := range restartRows() {
		t.Run(r.name, func(t *testing.T) {
			recs := restartRecords(t, r.node, r.recs)
			want := restartResult{outcome: r.outcome, inDoubt: r.inDoubt}
			want.sent = append(append([]string(nil), r.sent...), r.simSent...)
			sort.Strings(want.sent)
			if got := restartSim(t, r, recs); !reflect.DeepEqual(got, want) {
				t.Errorf("simulator: %+v, want %+v", got, want)
			}
			want.pinned, want.sent = r.pinned, append([]string(nil), r.sent...)
			sort.Strings(want.sent)
			if got := restartLive(t, r, recs); !reflect.DeepEqual(got, want) {
				t.Errorf("runtime: %+v, want %+v", got, want)
			}
		})
	}
}

// restartSim restarts a simulator node over recs with every message
// dropped, and runs it until nothing is left to do.
func restartSim(t *testing.T, r restartRow, recs []wal.Record) restartResult {
	t.Helper()
	eng := core.NewEngine(core.Config{Variant: r.v})
	for _, id := range []protocol.NodeID{"C", "S1", "S2", "A"} {
		eng.AddNode(id)
	}
	self := protocol.NodeID(r.node)
	for _, rec := range recs {
		if _, err := eng.Node(self).Log().Force(rec); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	var res restartResult
	eng.SetMessageFilter(func(from, to protocol.NodeID, m protocol.Message) (protocol.Message, bool) {
		if l := sentLabel(string(to), m); from == self && !seen[l] {
			seen[l] = true
			res.sent = append(res.sent, l)
		}
		return m, false
	})
	eng.Crash(self)
	eng.Restart(self, 0)
	eng.Step() // the restart itself
	tx := protocol.ParseTxID("C:1")
	if o, ok := eng.OutcomeAt(self, tx); ok {
		res.outcome = map[core.Outcome]string{core.OutcomeCommitted: "commit", core.OutcomeAborted: "abort"}[o]
	}
	res.inDoubt = eng.InDoubtAt(self, tx)
	eng.Drain()
	sort.Strings(res.sent)
	return res
}

// restartLive starts a runtime participant over recs, with the other
// nodes listening, drives its in-doubt recovery briefly, and collects
// the first message to each peer.
func restartLive(t *testing.T, r restartRow, recs []wal.Record) restartResult {
	t.Helper()
	store := wal.NewMemStore()
	for _, rec := range recs {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	net := netsim.NewChanNetwork()
	got := make(chan string, 256)
	stop := make(chan struct{})
	defer close(stop)
	for _, name := range []string{"C", "S1", "S2", "A"} {
		if name == r.node {
			continue
		}
		ep := net.Endpoint(name)
		go func() {
			for {
				select {
				case pkt, ok := <-ep.Recv():
					if !ok {
						return
					}
					for _, m := range pkt.Messages {
						select {
						case got <- sentLabel(name, m):
						default:
						}
					}
				case <-stop:
					return
				}
			}
		}()
	}
	p := live.NewParticipant(r.node, net.Endpoint(r.node), wal.New(store), nil,
		live.WithVariant(r.v), live.WithTimeout(time.Minute, time.Minute))
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	var res restartResult
	if committed, ok := p.Decided()["C:1"]; ok {
		res.outcome = map[bool]string{true: "commit", false: "abort"}[committed]
	}
	res.pinned = p.PinnedDecisions() > 0
	inDoubt, err := p.InDoubtTxs()
	if err != nil {
		t.Fatal(err)
	}
	res.inDoubt = len(inDoubt) > 0
	if r.node != "C" {
		// A participant in doubt asks when told to recover.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, _ = p.RecoverInDoubt(ctx, "C")
		cancel()
	}
	seen := map[string]bool{}
	deadline := time.After(2 * time.Second)
	grace := time.After(30 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case l := <-got:
			if !seen[l] {
				seen[l] = true
				res.sent = append(res.sent, l)
			}
		case <-grace:
			waiting = len(res.sent) < len(r.sent)
			grace = time.After(20 * time.Millisecond)
		case <-deadline:
			waiting = false
		}
	}
	sort.Strings(res.sent)
	return res
}
