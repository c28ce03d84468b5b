package core

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

// flowsOf returns the commit-protocol flows (excluding application
// data) as "from->to Label" strings with the tx id stripped.
func flowsOf(eng *Engine) []string {
	var out []string
	for _, f := range eng.Trace().FlowStrings() {
		if strings.Contains(f, "Data") {
			continue
		}
		if i := strings.IndexByte(f, '('); i >= 0 {
			f = f[:i]
		}
		out = append(out, f)
	}
	return out
}

// logsOf returns "node Kind[*]" strings for TM log writes.
func logsOf(eng *Engine) []string {
	var out []string
	for _, e := range eng.Trace().LogWrites() {
		s := e.Node + " " + e.Detail
		if e.Forced {
			s += "*"
		}
		out = append(out, s)
	}
	return out
}

func assertSeq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

// Figure 1: simple two-phase commit, one coordinator, one subordinate.
func TestFigure1Flows(t *testing.T) {
	eng, res, _, _ := commitTwoNode(t, Config{Variant: protocol.VariantBaseline})
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	assertSeq(t, flowsOf(eng), []string{
		"C->S Prepare",
		"S->C VoteYes",
		"C->S Commit",
		"S->C Ack",
	})
	assertSeq(t, logsOf(eng), []string{
		"S Prepared*",
		"C Committed*",
		"S Committed*",
		"S End",
		"C End",
	})
}

// Figure 2: 2PC with a cascaded (intermediate) coordinator.
func TestFigure2CascadedFlows(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantBaseline})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	assertSeq(t, flowsOf(eng), []string{
		"C->M Prepare",
		"M->L Prepare", // cascaded propagation before M votes
		"L->M VoteYes",
		"M->C VoteYes",
		"C->M Commit",
		"M->L Commit",
		"L->M Ack",
		"M->C Ack", // late acknowledgment: M acks after L
	})
}

// Figure 3: Presumed Nothing with an intermediate coordinator — the
// pending records precede the prepares.
func TestFigure3PNFlowsAndLogs(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPN})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm"))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl"))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	logs := logsOf(eng)
	// The coordinator's commit-pending force is the very first log
	// write, before any Prepare flows (§3).
	if logs[0] != "C Pending*" {
		t.Fatalf("first log = %q, want C Pending*", logs[0])
	}
	// The intermediate also forces its pending record before
	// propagating the prepare downstream.
	idxMPending, idxLPrepared := -1, -1
	for i, l := range logs {
		if l == "M Pending*" {
			idxMPending = i
		}
		if l == "L Prepared*" {
			idxLPrepared = i
		}
	}
	if idxMPending == -1 || idxLPrepared == -1 || idxMPending > idxLPrepared {
		t.Fatalf("M's pending record must precede L's prepare: %v", logs)
	}
}

// Figure 4: partial read-only commit processing.
func TestFigure4ReadOnlyFlows(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("RO").AttachResource(protocol.NewStaticResource("ro", protocol.StaticVote(protocol.VoteReadOnly)))
	eng.AddNode("UP").AttachResource(protocol.NewStaticResource("up"))
	tx := eng.Begin("C")
	tx.Send("C", "RO", "r")
	tx.Send("C", "UP", "w")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	flows := flowsOf(eng)
	for _, f := range flows {
		if strings.HasPrefix(f, "C->RO Commit") {
			t.Fatalf("read-only participant received phase two: %v", flows)
		}
		if strings.HasPrefix(f, "RO->C Ack") {
			t.Fatalf("read-only participant acked: %v", flows)
		}
	}
	assertSeq(t, flows, []string{
		"C->RO Prepare",
		"C->UP Prepare",
		"RO->C VoteReadOnly",
		"UP->C VoteYes",
		"C->UP Commit",
		"UP->C Ack",
	})
}

// Figure 5: the transaction-tree partition hazard that motivates the
// leave-out restrictions — a suspended partner cannot initiate.
func TestFigure5LeaveOutPartitionProtection(t *testing.T) {
	// Pb--Pa: Pa is a peer (not a pure server) that incorrectly
	// promises OK-to-leave-out; it is suspended after the commit, and
	// the engine blocks its attempt to initiate independent work —
	// the damage Figure 5 illustrates cannot occur.
	eng := NewEngine(Config{Variant: protocol.VariantPN, Options: Options{ReadOnly: true, LeaveOut: true}})
	eng.AddNode("Pb").AttachResource(protocol.NewStaticResource("rb"))
	eng.AddNode("Pa").AttachResource(protocol.NewStaticResource("ra", protocol.StaticVote(protocol.VoteReadOnly), protocol.StaticLeaveOut()))
	eng.AddNode("Pd").AttachResource(protocol.NewStaticResource("rd"))

	tx1 := eng.Begin("Pb")
	tx1.Send("Pb", "Pa", "w")
	if res := tx1.Commit("Pb"); res.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v", res)
	}
	// Pa now suspended. It may not start a commit of its own.
	tx2 := eng.Begin("Pa")
	res := tx2.Commit("Pa")
	if res.Err == nil {
		t.Fatal("suspended Pa initiated a commit — Figure 5 damage possible")
	}
}

// Figure 6: last-agent commit processing.
func TestFigure6LastAgentFlows(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LastAgent: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("A").AttachResource(protocol.NewStaticResource("ra"))
	tx := eng.Begin("C")
	tx.Send("C", "A", "w")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	assertSeq(t, flowsOf(eng), []string{
		"C->A VoteYes+LastAgent", // single round trip, no Prepare
		"A->C Commit",
	})
	logs := logsOf(eng)
	// Coordinator forces prepared before delegating (PA cost).
	if logs[0] != "C Prepared*" {
		t.Fatalf("first log = %q, want C Prepared*", logs[0])
	}
}

// Figure 7: long locks — the subordinate's ack rides the next
// transaction's data.
func TestFigure7LongLocksFlows(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, LongLocks: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx1 := eng.Begin("C")
	tx1.Send("C", "S", "w1")
	p := tx1.CommitAsync("C")
	eng.Drain()
	tx2 := eng.Begin("S")
	tx2.Send("S", "C", "w2") // begins the next transaction; carries the ack
	if r, done := p.Result(); !done || r.Outcome != OutcomeCommitted {
		t.Fatalf("tx1 = %+v done=%v", r, done)
	}
	// The raw trace shows the ack flowed, and metrics show it cost no
	// packet of its own.
	sawAck := false
	for _, f := range eng.Trace().FlowStrings() {
		if strings.HasPrefix(f, "S->C Ack") {
			sawAck = true
		}
	}
	if !sawAck {
		t.Fatal("deferred ack never flowed")
	}
	s := eng.Metrics().Node("S")
	if s.MessagesSent != s.PacketsSent+1 {
		t.Fatalf("exactly one piggybacked message expected: msgs=%d pkts=%d", s.MessagesSent, s.PacketsSent)
	}
}

// Figure 8: vote reliable — early completion with late-ack semantics.
func TestFigure8VoteReliableFlows(t *testing.T) {
	eng := NewEngine(Config{Variant: protocol.VariantPA, Options: Options{ReadOnly: true, VoteReliable: true}})
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc", protocol.StaticReliable()))
	eng.AddNode("M").AttachResource(protocol.NewStaticResource("rm", protocol.StaticReliable()))
	eng.AddNode("L").AttachResource(protocol.NewStaticResource("rl", protocol.StaticReliable()))
	tx := eng.Begin("C")
	tx.Send("C", "M", "x")
	tx.Send("M", "L", "y")
	if res := tx.Commit("C"); res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	eng.FlushSessions()
	assertSeq(t, flowsOf(eng), []string{
		"C->M Prepare",
		"M->L Prepare",
		"L->M VoteYes+Reliable",
		"M->C VoteYes+Reliable",
		"C->M Commit",
		"M->L Commit",
		// No explicit acks anywhere: all were implied.
	})
}

// The rendered chart of Figure 1 should read like the paper's.
func TestFigureRendering(t *testing.T) {
	eng, res, _, _ := commitTwoNode(t, Config{Variant: protocol.VariantBaseline})
	if res.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	out := eng.Trace().Render("C", "S")
	for _, frag := range []string{"Prepare", "VoteYes", "Commit", "Ack", "*log Committed*", "*log Prepared*"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered figure missing %q:\n%s", frag, out)
		}
	}
}
