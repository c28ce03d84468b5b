package check

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/wal"
)

// TestPaxosFreeInstance makes a recovery leader choose the value of a
// Paxos instance no acceptor reported: S3 — no acceptor, with C, S1 and
// S2 holding the quorum — votes No, and every ballot-0 accept it sends
// is lost. The leader must not hear of the instance, so no bundle ever
// completes, the leader's timer runs a recovery round, and the promise
// quorum reports S3's instance nowhere. Gray & Lamport's rule makes such
// a free instance No: the outcome is abort everywhere. Were it Yes, the
// leader would commit while S3 aborted, and the oracle convicts the
// split (AC1). Both engines reach the case.
func TestPaxosFreeInstance(t *testing.T) {
	subs := []string{"S1", "S2", "S3"}
	lost := func(from string, m protocol.Message) bool {
		return from == "S3" && m.Type == protocol.MsgPaxosAccept
	}
	resource := func(name string) protocol.Resource {
		if name == "S3" {
			return protocol.NewStaticResource(name+"-res", protocol.StaticVote(protocol.VoteNo))
		}
		return protocol.NewStaticResource(name + "-res")
	}
	for _, engine := range []string{"sim", "live"} {
		t.Run(engine, func(t *testing.T) {
			var run Run
			if engine == "sim" {
				eng := core.NewEngine(core.Config{Variant: protocol.VariantPaxos})
				for _, name := range append([]string{"C"}, subs...) {
					eng.AddNode(protocol.NodeID(name)).AttachResource(resource(name))
				}
				eng.SetMessageFilter(func(from, _ protocol.NodeID, m protocol.Message) (protocol.Message, bool) {
					return m, !lost(string(from), m)
				})
				tx := paxosCommitSim(t, eng, subs)
				run = Run{Variant: protocol.VariantPaxos, Events: eng.Trace().Events(), Final: make(map[string]Final)}
				for _, name := range append([]string{"C"}, subs...) {
					f := Final{Outcomes: make(map[string]bool)}
					if o, ok := eng.OutcomeAt(protocol.NodeID(name), tx.ID()); ok {
						f.Outcomes[tx.ID().String()] = o == core.OutcomeCommitted
					}
					run.Final[name] = f
				}
			} else {
				trc := trace.New()
				net := netsim.NewChanNetwork(netsim.WithTransform(func(from, _ string, m protocol.Message) (protocol.Message, bool) {
					return m, !lost(from, m)
				}))
				parts := make(map[string]*live.Participant)
				for i, name := range append([]string{"C"}, subs...) {
					p := live.NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
						[]protocol.Resource{resource(name)},
						live.WithVariant(protocol.VariantPaxos), live.WithTrace(trc),
						live.WithTimeout(liveTimeout, liveTimeout), live.WithRetry(liveRetry()),
						live.WithRetrySeed(424247+int64(i)))
					p.Start()
					t.Cleanup(p.Stop)
					parts[name] = p
				}
				ctx, cancel := context.WithTimeout(context.Background(), liveRecovery)
				out, err := parts["C"].Commit(ctx, "C:1", subs)
				cancel()
				if out != live.Aborted {
					t.Fatalf("commit = %v, %v; want aborted", out, err)
				}
				run = Run{Variant: protocol.VariantPaxos, Events: trc.Events(), Final: make(map[string]Final)}
				for name, p := range parts {
					run.Final[name] = Final{Outcomes: p.Decided()}
				}
			}

			queried := false
			for _, e := range run.Events {
				queried = queried || (e.Kind == trace.KindSend && msgBase(e.Detail) == "PaxosQuery")
			}
			if !queried {
				t.Fatal("no recovery round ran: the free instance was never chosen")
			}
			for name, f := range run.Final {
				for tx, committed := range f.Outcomes {
					if committed {
						t.Errorf("%s committed %s although S3 voted no", name, tx)
					}
				}
			}
			if vs := Check(run); len(vs) > 0 {
				t.Errorf("oracle: %v", vs)
			}
		})
	}
}
