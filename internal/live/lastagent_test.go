package live

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestLiveLastAgentResolvesDoubt covers a delegating coordinator that
// does not hear its last agent's answer: the delegation record must be
// forced before the delegation leaves, the coordinator must answer its
// other yes-voter InProgress rather than presume while the agent is
// silent, and once it reaches the agent — asking again in the live
// process, or after a restart of either side — it must complete its own
// resources and tell the voter the agent's decision. An agent that
// restarts has lost a presumed-abort abort, which it never recorded,
// and its resource would now vote yes: the repeated delegation must
// still be answered abort.
func TestLiveLastAgentResolvesDoubt(t *testing.T) {
	for _, tc := range []struct {
		name       string
		variant    protocol.Variant
		agentVote  protocol.VoteValue
		loseAnswer bool          // drop the agent's answers until the check below
		crashCoord bool          // crash the coordinator right after the delegation leaves, then restart it
		crashAgent bool          // crash and restart the agent while its answer is lost
		outlast    bool          // keep the answer lost until the agent's decided table has rotated past it
		commit     bool          // the agent's decision
		voteDelay  time.Duration // S1 votes this late, past the coordinator's first Prepare retransmission
	}{
		{name: "PA agent commits, answer lost", variant: protocol.VariantPA, agentVote: protocol.VoteYes, loseAnswer: true, commit: true},
		{name: "PC agent votes no, answer lost", variant: protocol.VariantPC, agentVote: protocol.VoteNo, loseAnswer: true},
		{name: "PA coordinator crashes after delegating", variant: protocol.VariantPA, agentVote: protocol.VoteYes, crashCoord: true, commit: true},
		{name: "PA coordinator crashes after delegating, S1 votes late", variant: protocol.VariantPA, agentVote: protocol.VoteYes, crashCoord: true, commit: true, voteDelay: 20 * time.Millisecond},
		{name: "PA agent votes no, answer lost, agent restarts", variant: protocol.VariantPA, agentVote: protocol.VoteNo, loseAnswer: true, crashAgent: true},
		{name: "PA agent commits, answer lost past its horizon", variant: protocol.VariantPA, agentVote: protocol.VoteYes, loseAnswer: true, outlast: true, commit: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lose atomic.Bool
			lose.Store(tc.loseAnswer)
			net := netsim.NewChanNetwork(netsim.WithTransform(func(from, to string, m protocol.Message) (protocol.Message, bool) {
				answer := from == "A" && to == "C" && (m.Type == protocol.MsgCommit || m.Type == protocol.MsgAbort)
				return m, !(answer && lose.Load())
			}))
			opts := []Option{
				WithVariant(tc.variant),
				WithTimeout(60*time.Millisecond, 60*time.Millisecond),
				WithRetry(clock.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}),
			}
			tx := protocol.TxID{Origin: "C", Seq: 21}.String()
			coordLog := wal.New(wal.NewMemStore())
			coordOpts := append([]Option{WithLastAgent()}, opts...)
			if tc.crashCoord {
				// The delegation is the first Prepare C sends once its
				// log holds the forced delegation record; a Prepare
				// retransmitted to a slow S1 comes before it.
				var crashed atomic.Bool
				coordOpts = append(coordOpts, WithFailpoint(func(point string) bool {
					if point != "after-send:Prepare" || crashed.Load() {
						return false
					}
					forced, err := hasDelegation(coordLog, tx)
					return err == nil && forced && crashed.CompareAndSwap(false, true)
				}))
			}
			rc := protocol.NewStaticResource("rc")
			coord := NewParticipant("C", net.Endpoint("C"), coordLog, []protocol.Resource{rc}, coordOpts...)
			var r1 protocol.Resource = protocol.NewStaticResource("r1")
			if tc.voteDelay > 0 {
				r1 = &slowVote{StaticResource: protocol.NewStaticResource("r1"), delay: tc.voteDelay}
			}
			s1 := NewParticipant("S1", net.Endpoint("S1"), wal.New(wal.NewMemStore()), []protocol.Resource{r1}, opts...)
			// One shard, so the agent's other transactions age this one.
			agent := NewParticipant("A", net.Endpoint("A"), wal.New(wal.NewMemStore()),
				[]protocol.Resource{&voteOnce{StaticResource: protocol.NewStaticResource("ra"), first: tc.agentVote}}, append(opts, WithShards(1))...)
			for _, p := range []*Participant{coord, s1, agent} {
				p.Start()
			}
			defer func() { coord.Stop(); s1.Stop(); agent.Stop() }()

			out, err := coord.Commit(context.Background(), tx, []string{"S1", "A"})
			if out != InDoubt {
				t.Fatalf("Commit = %v, %v; want in-doubt: the agent's answer never arrived", out, err)
			}
			if !delegationForced(t, coordLog, tx) {
				t.Fatal("the coordinator's log has no forced Prepared record naming the agent")
			}
			if tc.crashCoord {
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("Commit err = %v, want ErrCrashed", err)
				}
				// The agent handles each Prepare on its own goroutine,
				// so the restart's repeated delegation could overtake
				// the first one there, and a repeat the agent has no
				// record of is answered abort. This case is the restart
				// learning the agent's decision: restart once it is made.
				waitUntil(t, 5*time.Second, func() bool {
					_, ok := agent.Decided()[tx]
					return ok
				})
				coord = coord.Restarted(net.Endpoint("C"))
				coord.Start()
			}

			// While the agent's answer is missing, the voter's inquiry is
			// answered InProgress: it stays in doubt, never presumed.
			if tc.loseAnswer {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = s1.RecoverInDoubt(ctx, "C")
				cancel()
				if c, ok := s1.Decided()[tx]; ok {
					t.Fatalf("S1 decided committed=%v while the agent was unheard from", c)
				}
				if tc.outlast {
					// Transactions S1 coordinates with the agent age the
					// agent's decided table through two rotations: an
					// entry not held for the coordinator is gone.
					for i := 0; i < 3; i++ {
						time.Sleep(150 * time.Millisecond)
						other := protocol.TxID{Origin: "S1", Seq: uint64(i + 1)}.String()
						if out, err := s1.Commit(context.Background(), other, []string{"A"}); out != Committed {
							t.Fatalf("S1's transaction with the agent = %v, %v", out, err)
						}
					}
				}
				if tc.crashAgent {
					agent.Crash()
					agent = agent.Restarted(net.Endpoint("A"))
					agent.Start()
				}
				lose.Store(false)
			}

			waitUntil(t, 5*time.Second, func() bool {
				_, ok := s1.Decided()[tx]
				return ok && rcDone(rc, tx)
			})
			for name, p := range map[string]*Participant{"C": coord, "S1": s1, "A": agent} {
				if c, ok := p.Decided()[tx]; !ok || c != tc.commit {
					t.Errorf("%s decided committed=%v (known %v), want %v", name, c, ok, tc.commit)
				}
			}
			if c, _ := rc.Outcome(protocol.ParseTxID(tx)); c != tc.commit {
				t.Errorf("the coordinator's resource completed committed=%v, want %v", c, tc.commit)
			}
			waitUntil(t, 5*time.Second, func() bool {
				ids, err := coord.InDoubtTxs()
				return err == nil && len(ids) == 0
			})
		})
	}
}

// voteOnce votes first on its first Prepare and yes on every later
// one, as a store does whose rolled-back writes leave nothing to
// refuse.
type voteOnce struct {
	*protocol.StaticResource
	first protocol.VoteValue
	asked atomic.Bool
}

func (r *voteOnce) Prepare(tx protocol.TxID) (protocol.PrepareResult, error) {
	if !r.asked.Swap(true) && r.first != protocol.VoteYes {
		return protocol.PrepareResult{Vote: r.first}, nil
	}
	return r.StaticResource.Prepare(tx)
}

// slowVote votes only after delay.
type slowVote struct {
	*protocol.StaticResource
	delay time.Duration
}

func (r *slowVote) Prepare(tx protocol.TxID) (protocol.PrepareResult, error) {
	time.Sleep(r.delay)
	return r.StaticResource.Prepare(tx)
}

// delegationForced is hasDelegation failing the test on a log error.
func delegationForced(t *testing.T, log *wal.Log, tx string) bool {
	t.Helper()
	forced, err := hasDelegation(log, tx)
	if err != nil {
		t.Fatal(err)
	}
	return forced
}

// hasDelegation reports whether log holds a forced Prepared record by C
// for tx that names agent A.
func hasDelegation(log *wal.Log, tx string) (bool, error) {
	recs, err := log.Records()
	if err != nil {
		return false, err
	}
	for _, r := range recs {
		if r.Node == "C" && r.Tx == tx && r.Kind == "Prepared" && r.Forced {
			_, agent, _, ok := decodeDelegation(r.Data)
			return ok && agent == "A", nil
		}
	}
	return false, nil
}

func rcDone(r *protocol.StaticResource, tx string) bool {
	_, known := r.Outcome(protocol.ParseTxID(tx))
	return known
}

// TestDelegationDataRoundTrip pins the delegation record's payload and
// keeps the Prepared payloads already on disk decoding as before.
func TestDelegationDataRoundTrip(t *testing.T) {
	b := delegationData(protocol.VariantPN, "A", []string{"S1", "S2"})
	if got := string(b); got != "dlg1 PresumePending A S1 S2" {
		t.Fatalf("delegationData = %q", got)
	}
	v, agent, yes, ok := decodeDelegation(b)
	if !ok || v != protocol.VariantPN || agent != "A" || strings.Join(yes, ",") != "S1,S2" {
		t.Fatalf("decodeDelegation = %v %q %v %v", v, agent, yes, ok)
	}
	if v, _, yes, ok := decodeDelegation(delegationData(protocol.VariantPA, "A", nil)); !ok || v != protocol.VariantPA || len(yes) != 0 {
		t.Fatalf("no other yes-voters: %v %v %v", v, yes, ok)
	}
	if v, ok := presumeFromData(b); !ok || v != protocol.VariantPN {
		t.Fatalf("presumeFromData(delegation) = %v, %v", v, ok)
	}
	for _, old := range []string{"PresumeAbort", "pax1 b=0", "", "dlg1 PresumeAbort", "dlg1 NoSuch A S1"} {
		if _, _, _, ok := decodeDelegation([]byte(old)); ok {
			t.Errorf("%q decoded as a delegation record", old)
		}
	}
}
