package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// outcomeAt reads a participant's durable verdict for tx from its
// log: (committed, decided).
func outcomeAt(t *testing.T, log *wal.Log, node, tx string) (bool, bool) {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	committed, decided := false, false
	for _, r := range recs {
		if r.Node != node || r.Tx != tx {
			continue
		}
		switch r.Kind {
		case "Committed":
			committed, decided = true, true
		case "Aborted":
			committed, decided = false, true
		}
	}
	return committed, decided
}

// TestLiveSoakUnderPacketLoss floods a lossy network with concurrent
// transactions under every protocol variant and asserts atomicity:
// after retries and recovery, no transaction is committed at one node
// and aborted at another.
func TestLiveSoakUnderPacketLoss(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			net := netsim.NewChanNetwork(netsim.WithLoss(0.15, 0xC0FFEE+int64(v)))
			logC := wal.New(wal.NewMemStore())
			logS1 := wal.New(wal.NewMemStore())
			logS2 := wal.New(wal.NewMemStore())
			opts := []Option{
				WithVariant(v),
				WithTimeout(3*time.Second, 1*time.Second),
				WithRetry(clock.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}),
			}
			coord := NewParticipant("C", net.Endpoint("C"), logC,
				[]protocol.Resource{protocol.NewStaticResource("rc")}, opts...)
			s1 := NewParticipant("S1", net.Endpoint("S1"), logS1,
				[]protocol.Resource{protocol.NewStaticResource("r1")}, opts...)
			s2 := NewParticipant("S2", net.Endpoint("S2"), logS2,
				[]protocol.Resource{protocol.NewStaticResource("r2")}, opts...)
			coord.Start()
			s1.Start()
			s2.Start()
			defer coord.Stop()
			defer s1.Stop()
			defer s2.Stop()

			const n = 40
			outs := make([]Outcome, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tx := protocol.TxID{Origin: "C", Seq: uint64(1 + i)}
					outs[i], errs[i] = coord.Commit(context.Background(), tx.String(), []string{"S1", "S2"})
				}(i)
			}
			wg.Wait()

			// Give leftover phase-two traffic a beat, then let the
			// subordinates resolve anything still in doubt.
			time.Sleep(50 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = s1.RecoverInDoubt(ctx, "C")
			_, _ = s2.RecoverInDoubt(ctx, "C")

			for i := 0; i < n; i++ {
				tx := protocol.TxID{Origin: "C", Seq: uint64(1 + i)}.String()
				coordCommitted := outs[i] == Committed
				if outs[i] == InDoubt {
					t.Errorf("%s: coordinator in doubt (err=%v)", tx, errs[i])
					continue
				}
				for node, log := range map[string]*wal.Log{"S1": logS1, "S2": logS2} {
					subCommitted, decided := outcomeAt(t, log, node, tx)
					if !decided {
						// Never-forced subordinates are fine for aborts
						// (PA presumes them) and for PC commits.
						if coordCommitted && v != protocol.VariantPC {
							t.Errorf("%s: committed at C but undecided at %s under %v", tx, node, v)
						}
						continue
					}
					if subCommitted != coordCommitted {
						t.Errorf("%s: atomicity violated — C says committed=%v, %s says committed=%v",
							tx, coordCommitted, node, subCommitted)
					}
				}
			}
		})
	}
}

// TestLiveAllVariantsCommit exercises a clean three-party commit under
// each variant, checking the variant-specific log shapes: PN/PC force
// an initiation record, PC subordinates do not force the commit.
func TestLiveAllVariantsCommit(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			net := netsim.NewChanNetwork()
			logC := wal.New(wal.NewMemStore())
			logS := wal.New(wal.NewMemStore())
			coord := NewParticipant("C", net.Endpoint("C"), logC,
				[]protocol.Resource{protocol.NewStaticResource("rc")}, WithVariant(v))
			sub := NewParticipant("S", net.Endpoint("S"), logS,
				[]protocol.Resource{protocol.NewStaticResource("rs")}, WithVariant(v))
			coord.Start()
			sub.Start()
			defer coord.Stop()
			defer sub.Stop()

			tx := protocol.TxID{Origin: "C", Seq: 9}
			out, err := coord.Commit(context.Background(), tx.String(), []string{"S"})
			if err != nil || out != Committed {
				t.Fatalf("commit = %v, %v", out, err)
			}
			waitAcked(t, coord)
			if committed, decided := outcomeAt(t, logS, "S", tx.String()); !decided || !committed {
				// PC subordinates log the commit non-forced; it may sit in
				// the log buffer. Force by syncing via a fresh record.
				if v != protocol.VariantPC {
					t.Fatalf("subordinate log misses the commit (decided=%v committed=%v)", decided, committed)
				}
			}

			recs, err := logC.Records()
			if err != nil {
				t.Fatal(err)
			}
			hasInit := false
			for _, r := range recs {
				if r.Kind == "Pending" || r.Kind == "Collecting" {
					hasInit = true
				}
			}
			switch v {
			case protocol.VariantPN, protocol.VariantPC:
				if !hasInit {
					t.Errorf("%v coordinator log lacks its initiation record", v)
				}
			default:
				if hasInit {
					t.Errorf("%v coordinator unexpectedly logged an initiation record", v)
				}
			}
		})
	}
}

// TestLiveLastAgentDelegation commits via the §4 Last Agent path: the
// final subordinate gets Prepare+Delegate and owns the decision.
func TestLiveLastAgentDelegation(t *testing.T) {
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithLastAgent())
	s1 := NewParticipant("S1", net.Endpoint("S1"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("r1")})
	agentLog := wal.New(wal.NewMemStore())
	agent := NewParticipant("A", net.Endpoint("A"), agentLog,
		[]protocol.Resource{protocol.NewStaticResource("ra")})
	coord.Start()
	s1.Start()
	agent.Start()
	defer coord.Stop()
	defer s1.Stop()
	defer agent.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 11}
	out, err := coord.Commit(context.Background(), tx.String(), []string{"S1", "A"})
	if err != nil || out != Committed {
		t.Fatalf("delegated commit = %v, %v", out, err)
	}
	// The agent decided: its log has the Committed force but no
	// Prepared record (it never voted).
	recs, err := agentLog.Records()
	if err != nil {
		t.Fatal(err)
	}
	sawCommit, sawPrepared := false, false
	for _, r := range recs {
		if r.Node != "A" {
			continue
		}
		switch r.Kind {
		case "Committed":
			sawCommit = true
		case "Prepared":
			sawPrepared = true
		}
	}
	if !sawCommit || sawPrepared {
		t.Errorf("agent log: sawCommit=%v sawPrepared=%v, want commit-only", sawCommit, sawPrepared)
	}
}

// TestLiveLastAgentVetoAborts has the delegated agent vote no.
func TestLiveLastAgentVetoAborts(t *testing.T) {
	net := netsim.NewChanNetwork()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithLastAgent())
	veto := NewParticipant("A", net.Endpoint("A"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("bad", protocol.StaticVote(protocol.VoteNo))})
	coord.Start()
	veto.Start()
	defer coord.Stop()
	defer veto.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 12}
	out, err := coord.Commit(context.Background(), tx.String(), []string{"A"})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if out != Aborted {
		t.Fatalf("out = %v, want aborted", out)
	}
}

// TestLiveUnsolicitedVote has a subordinate volunteer its vote before
// Commit runs, carried back as a reply (Volunteer) and handed to
// CommitVariant; the coordinator must skip that Prepare entirely, and
// the vote takes no packet of its own.
func TestLiveUnsolicitedVote(t *testing.T) {
	net := netsim.NewChanNetwork()
	creg, sreg := metrics.New(), metrics.New()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithMetrics(creg))
	sub := NewParticipant("S", net.Endpoint("S"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("rs")}, WithMetrics(sreg))
	coord.Start()
	sub.Start()
	defer coord.Stop()
	defer sub.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 13}
	vote, err := sub.Volunteer(tx.String(), coord.Variant())
	if err != nil || vote != protocol.VoteYes {
		t.Fatalf("volunteer = %v, %v", vote, err)
	}
	out, err := coord.CommitVariant(context.Background(), tx.String(), []string{"S"}, coord.Variant(), Vote{From: "S", Vote: vote})
	if err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	if c := ledgerNode(t, creg, tx.String(), "C"); c.Flows != 1 {
		t.Fatalf("coordinator spent %+v, want its Commit alone: no Prepare to a volunteer", c.CostCounters)
	}
	if s := ledgerNode(t, sreg, tx.String(), "S"); s.Flows != 2 || s.Piggybacked != 1 {
		t.Fatalf("volunteer spent %+v, want its piggybacked vote and its ack", s.CostCounters)
	}
	if n := sreg.Snapshot().Nodes["S"]; n.MessagesSent != 2 || n.PacketsSent != 1 {
		t.Fatalf("volunteer sent %d messages in %d packets, want the vote in the reply and the ack on the wire", n.MessagesSent, n.PacketsSent)
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// commitFailStore fails every Sync once a Committed record by node has
// been appended, so that node's force of its commit decision fails.
type commitFailStore struct {
	*wal.MemStore
	node string
	bad  atomic.Bool
}

func (s *commitFailStore) Append(rec wal.Record) error {
	if rec.Kind == "Committed" && rec.Node == s.node {
		s.bad.Store(true)
	}
	return s.MemStore.Append(rec)
}

func (s *commitFailStore) Sync() error {
	if s.bad.Load() {
		return errors.New("injected fdatasync failure")
	}
	return s.MemStore.Sync()
}

// TestLiveLastAgentForceFailureEndsLedgerPart: when the coordinator
// cannot force its commit record after the last agent decided commit,
// Commit still reports Committed (the agent's decision stands), and the
// coordinator's part of the cost ledger is marked done: no End will
// follow, so nothing else would mark it.
func TestLiveLastAgentForceFailureEndsLedgerPart(t *testing.T) {
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	coord := NewParticipant("C", net.Endpoint("C"), wal.New(&commitFailStore{MemStore: wal.NewMemStore(), node: "C"}),
		[]protocol.Resource{protocol.NewStaticResource("rc")}, WithLastAgent(), WithMetrics(reg))
	agent := NewParticipant("A", net.Endpoint("A"), wal.New(wal.NewMemStore()),
		[]protocol.Resource{protocol.NewStaticResource("ra")})
	coord.Start()
	agent.Start()
	defer coord.Stop()
	defer agent.Stop()

	tx := protocol.TxID{Origin: "C", Seq: 14}.String()
	out, err := coord.Commit(context.Background(), tx, []string{"A"})
	if out != Committed || err == nil {
		t.Fatalf("delegated commit with a failing log = %v, %v; want committed and the force error", out, err)
	}
	// This node's part is over, as after any Committed return: its
	// counters are final.
	snap := reg.CostSnapshot()
	if len(snap) != 1 || snap[0].Tx != tx || !snap[0].Node("C").Done {
		t.Fatalf("cost ledger %+v, want %s with the coordinator's part done", snap, tx)
	}
}
