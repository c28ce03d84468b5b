package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// paxosFleet builds a four-node live fleet (C + S1..S3) over an
// in-process channel network, sharing one metrics registry so the
// conformance audit sees every node's ledger. perNode supplies extra
// options for individual participants (e.g. a failpoint on C only).
func paxosFleet(t *testing.T, perNode map[string][]Option) (parts map[string]*Participant, logs map[string]*wal.Log, reg *metrics.Registry, net *netsim.ChanNetwork) {
	t.Helper()
	net = netsim.NewChanNetwork()
	reg = metrics.New()
	parts = make(map[string]*Participant)
	logs = make(map[string]*wal.Log)
	for _, name := range []string{"C", "S1", "S2", "S3"} {
		log := wal.New(wal.NewMemStore())
		logs[name] = log
		opts := append([]Option{
			WithVariant(protocol.VariantPaxos),
			WithMetrics(reg),
			WithTimeout(2*time.Second, 2*time.Second),
		}, perNode[name]...)
		p := NewParticipant(name, net.Endpoint(name), log,
			[]protocol.Resource{protocol.NewStaticResource("r" + name)}, opts...)
		parts[name] = p
		p.Start()
	}
	t.Cleanup(func() {
		for _, p := range parts {
			if !p.Crashed() {
				p.Stop()
			}
		}
	})
	return parts, logs, reg, net
}

// crashAfterNth returns a failpoint that crashes its participant when
// the named point fires for the n-th time.
func crashAfterNth(point string, n int) Option {
	seen := 0
	return WithFailpoint(func(p string) bool {
		if p != point {
			return false
		}
		seen++
		return seen == n
	})
}

// TestLivePaxosCommitExactCosts commits one transaction on a live
// four-node fleet and requires the runtime conformance audit to match
// the Paxos Commit closed forms exactly at every node: coordinator
// {2s+a-1, 3, 1}, acceptor-subordinates {a, 4, 2}, plain subordinate
// {a, 3, 1}. The audit needs quiescence (the slowest acceptor's
// bundle may trail the decision), so it polls.
func TestLivePaxosCommitExactCosts(t *testing.T) {
	parts, _, reg, _ := paxosFleet(t, nil)
	out, err := parts["C"].Commit(context.Background(), "C:1", []string{"S1", "S2", "S3"})
	if err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	var rep audit.Report
	waitUntil(t, 5*time.Second, func() bool {
		views := reg.CostSnapshot()
		for _, v := range views {
			if !v.Closed() {
				return false
			}
		}
		rep = audit.Conformance(views)
		return rep.OK() && rep.Exact == 4
	})
	if !rep.OK() {
		t.Fatalf("audit violations:\n%s", rep)
	}
	if rep.Exact != 4 {
		t.Fatalf("audit: %d exact matches, want 4\n%s", rep.Exact, rep)
	}
}

// TestLivePaxosAbortOnNoVote: one subordinate votes no; everyone
// converges on abort and the audit stays within the abort ceilings.
func TestLivePaxosAbortOnNoVote(t *testing.T) {
	net := netsim.NewChanNetwork()
	reg := metrics.New()
	mk := func(name string, res protocol.Resource) *Participant {
		p := NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]protocol.Resource{res}, WithVariant(protocol.VariantPaxos), WithMetrics(reg))
		p.Start()
		return p
	}
	coord := mk("C", protocol.NewStaticResource("rc"))
	s1 := mk("S1", protocol.NewStaticResource("r1"))
	s2 := mk("S2", protocol.NewStaticResource("r2", protocol.StaticVote(protocol.VoteNo)))
	s3 := mk("S3", protocol.NewStaticResource("r3"))
	defer coord.Stop()
	defer s1.Stop()
	defer s2.Stop()
	defer s3.Stop()

	out, err := coord.Commit(context.Background(), "C:2", []string{"S1", "S2", "S3"})
	if err != nil {
		t.Fatalf("commit error: %v", err)
	}
	if out != Aborted {
		t.Fatalf("outcome = %v, want aborted", out)
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, p := range []*Participant{s1, s2, s3} {
			if committed, known := p.Decided()["C:2"]; !known || committed {
				return false
			}
		}
		return true
	})
	if rep := audit.Conformance(reg.CostSnapshot()); !rep.OK() {
		t.Fatalf("audit violations:\n%s", rep)
	}
}

// TestLivePaxosCoordinatorCrashNonBlocking is the tentpole's payoff on
// the live engine: the coordinator process dies right after its last
// Prepare is on the wire, before its own ballot-0 accepts leave.
// Under the classic variants the prepared subordinates would block on
// recovery answers from the dead coordinator; under Paxos Commit they
// lead recovery rounds against the surviving acceptor quorum (S1, S2 —
// two of three) and resolve without it. With the coordinator's
// instance never accepted anywhere, the value-choice rule defaults it
// to No: everyone aborts.
func TestLivePaxosCoordinatorCrashNonBlocking(t *testing.T) {
	parts, logs, _, _ := paxosFleet(t, map[string][]Option{
		"C": {crashAfterNth("after-send:Prepare", 3)},
	})
	out, err := parts["C"].Commit(context.Background(), "C:3", []string{"S1", "S2", "S3"})
	if out != InDoubt || err == nil {
		t.Fatalf("crashed coordinator returned %v, %v", out, err)
	}
	if !parts["C"].Crashed() {
		t.Fatal("failpoint did not crash the coordinator")
	}

	// Every subordinate recovers on its own; the coordinator argument
	// is ignored under Paxos (the acceptor quorum answers). Recovery is
	// driven once the durable log shows the transaction in doubt — the
	// subs process their Prepares asynchronously, after Commit already
	// returned at the crashed coordinator.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			inDoubt, err := parts[name].InDoubtTxs()
			return err == nil && len(inDoubt) == 1
		})
		if _, err := parts[name].RecoverInDoubt(ctx, "C"); err != nil {
			t.Fatalf("%s recovery: %v", name, err)
		}
	}
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			_, decided := parts[name].Decided()["C:3"]
			return decided
		})
		if parts[name].Decided()["C:3"] {
			t.Errorf("%s committed: with the coordinator's accepts lost, recovery must abort", name)
		}
		// Paxos outcome records are lazy (the acceptor quorum, not the
		// local log, is the durable truth); a checkpoint hardens them,
		// after which the durable log itself is no longer in doubt.
		if err := logs[name].Sync(); err != nil {
			t.Fatalf("%s sync: %v", name, err)
		}
		if committed, decided := outcomeAt(t, logs[name], name, "C:3"); !decided || committed {
			t.Errorf("%s durable verdict = (committed=%v, decided=%v), want hardened abort", name, committed, decided)
		}
		if inDoubt, err := parts[name].InDoubtTxs(); err != nil || len(inDoubt) != 0 {
			t.Errorf("%s still in doubt after recovery: %v (%v)", name, inDoubt, err)
		}
	}
}

// TestLivePaxosCoordinatorCrashAfterAccepts crashes the coordinator
// after its own ballot-0 accepts reached the other acceptors: now a
// quorum (S1, S2) can learn every instance voted yes, so recovery must
// COMMIT — the outcome the dead coordinator was about to reach. This
// is the window where classic 2PC blocks and Paxos Commit does not.
func TestLivePaxosCoordinatorCrashAfterAccepts(t *testing.T) {
	parts, logs, _, _ := paxosFleet(t, map[string][]Option{
		// The coordinator's PaxosAccept sends are exactly its two
		// own-instance accepts to S1 and S2 (subs' accepts count on
		// their own participants' failpoints, not this one).
		"C": {crashAfterNth("after-send:PaxosAccept", 2)},
	})
	out, _ := parts["C"].Commit(context.Background(), "C:4", []string{"S1", "S2", "S3"})
	if out != InDoubt || !parts["C"].Crashed() {
		t.Fatalf("coordinator returned %v, crashed=%v", out, parts["C"].Crashed())
	}

	// The surviving acceptors' ballot-0 bundles must be durable before
	// any recovery round starts: a promise drops volatile ballot-0
	// accepts, and a round that preempts them may rightly abort.
	for _, name := range []string{"S1", "S2"} {
		waitUntil(t, 5*time.Second, func() bool { return hasRecord(t, logs[name], "PaxAccept") })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			inDoubt, err := parts[name].InDoubtTxs()
			return err == nil && len(inDoubt) == 1
		})
		if _, err := parts[name].RecoverInDoubt(ctx, "ignored"); err != nil {
			t.Fatalf("%s recovery: %v", name, err)
		}
	}
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			_, decided := parts[name].Decided()["C:4"]
			return decided
		})
		if !parts[name].Decided()["C:4"] {
			t.Errorf("%s aborted: every instance was accepted yes by a surviving quorum", name)
		}
		if err := logs[name].Sync(); err != nil {
			t.Fatalf("%s sync: %v", name, err)
		}
		if committed, decided := outcomeAt(t, logs[name], name, "C:4"); !decided || !committed {
			t.Errorf("%s durable verdict = (committed=%v, decided=%v), want hardened commit", name, committed, decided)
		}
	}
}

// hasRecord reports whether log holds a durable record of kind.
func hasRecord(t *testing.T, log *wal.Log, kind string) bool {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == kind {
			return true
		}
	}
	return false
}

// TestLivePaxosAcceptorRestartRecovers: an acceptor-subordinate
// crashes after its phase-one forces; its restarted process image must
// rebuild acceptor state from the durable log and resolve through the
// quorum even though the coordinator is also gone. All survivors must
// agree (AC1).
func TestLivePaxosAcceptorRestartRecovers(t *testing.T) {
	parts, logs, _, net := paxosFleet(t, map[string][]Option{
		"C": {crashAfterNth("after-send:PaxosAccept", 2)},
	})
	out, _ := parts["C"].Commit(context.Background(), "C:5", []string{"S1", "S2", "S3"})
	if out != InDoubt || !parts["C"].Crashed() {
		t.Fatalf("coordinator returned %v, crashed=%v", out, parts["C"].Crashed())
	}
	// Wait for S1's forced Prepared record, then crash it and restart
	// it over the same durable store.
	waitUntil(t, 5*time.Second, func() bool {
		recs, err := logs["S1"].Records()
		if err != nil {
			return false
		}
		for _, r := range recs {
			if r.Kind == "Prepared" && r.Forced {
				return true
			}
		}
		return false
	})
	parts["S1"].Crash()
	s1b := parts["S1"].Restarted(net.Endpoint("S1"))
	s1b.Start()
	parts["S1"] = s1b

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			inDoubt, err := parts[name].InDoubtTxs()
			return err == nil && len(inDoubt) == 1
		})
		if _, err := parts[name].RecoverInDoubt(ctx, "ignored"); err != nil {
			t.Fatalf("%s recovery: %v", name, err)
		}
	}
	outcomes := make(map[string]bool)
	for _, name := range []string{"S1", "S2", "S3"} {
		name := name
		waitUntil(t, 5*time.Second, func() bool {
			_, decided := parts[name].Decided()["C:5"]
			return decided
		})
		outcomes[name] = parts[name].Decided()["C:5"]
	}
	if outcomes["S1"] != outcomes["S2"] || outcomes["S2"] != outcomes["S3"] {
		t.Errorf("outcome disagreement: %v", outcomes)
	}
}

// TestLivePaxosPreparedRecordCarriesMembership asserts the Paxos
// subordinate persists the transaction's membership (the pax1 payload)
// in its Prepared record, and that presumeFromData recognizes it — the
// acceptor set is what a restarted participant recovers against.
func TestLivePaxosPreparedRecordCarriesMembership(t *testing.T) {
	parts, logs, _, _ := paxosFleet(t, nil)
	if out, err := parts["C"].Commit(context.Background(), "C:6", []string{"S1", "S2", "S3"}); err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	recs, err := logs["S3"].Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Node != "S3" || r.Kind != "Prepared" {
			continue
		}
		pr, ok := presumeFromData(r.Data)
		if !ok || pr != protocol.VariantPaxos {
			t.Fatalf("Prepared payload decodes to %v (ok=%v), want PaxosCommit", pr, ok)
		}
		return
	}
	t.Fatal("no Prepared record in S3's log")
}

// TestLivePaxosAcceptorLedgerWaitsForBundle holds back S3's ballot-0
// accept to S2, so the commit decision reaches acceptor S2 before its
// bundle is complete. S2 must keep its state entry and its cost-ledger
// entry open until the late accept lets it force the bundle; then the
// entry retires and every node's spend matches the closed form. (An
// entry closed at the decision would audit S2 short by the bundle's
// forced record and flow.)
func TestLivePaxosAcceptorLedgerWaitsForBundle(t *testing.T) {
	var mu sync.Mutex
	var held []protocol.Message
	net := netsim.NewChanNetwork(netsim.WithTransform(func(from, to string, m protocol.Message) (protocol.Message, bool) {
		if from == "S3" && to == "S2" && m.Type == protocol.MsgPaxosAccept {
			mu.Lock()
			held = append(held, m)
			mu.Unlock()
			return m, false
		}
		return m, true
	}))
	reg := metrics.New()
	parts := map[string]*Participant{}
	for _, name := range []string{"C", "S1", "S2", "S3"} {
		p := NewParticipant(name, net.Endpoint(name), wal.New(wal.NewMemStore()),
			[]protocol.Resource{protocol.NewStaticResource("r" + name)}, WithVariant(protocol.VariantPaxos), WithMetrics(reg))
		parts[name] = p
		p.Start()
		defer p.Stop()
	}
	out, err := parts["C"].Commit(context.Background(), "C:1", []string{"S1", "S2", "S3"})
	if err != nil || out != Committed {
		t.Fatalf("commit = %v, %v", out, err)
	}
	waitUntil(t, 5*time.Second, func() bool { _, ok := parts["S2"].Decided()["C:1"]; return ok })
	if n := parts["S2"].StateTableSize(); n != 1 {
		t.Fatalf("S2 keeps %d state entries with its bundle pending, want 1", n)
	}
	for _, v := range reg.CostSnapshot() {
		if v.Tx == "C:1" && v.Node("S2").Done {
			t.Fatal("S2's ledger entry closed before its bundle was forced")
		}
	}

	mu.Lock()
	late := held
	mu.Unlock()
	if len(late) != 1 {
		t.Fatalf("held %d accepts from S3 to S2, want 1", len(late))
	}
	x := net.Endpoint("X")
	if err := x.Send("S2", protocol.Packet{From: "S3", To: "S2", Messages: late}); err != nil {
		t.Fatal(err)
	}
	var rep audit.Report
	waitUntil(t, 5*time.Second, func() bool {
		views := reg.CostSnapshot()
		for _, v := range views {
			if !v.Closed() {
				return false
			}
		}
		rep = audit.Conformance(views)
		return parts["S2"].StateTableSize() == 0
	})
	if !rep.OK() || rep.Exact != 4 {
		t.Fatalf("audit: %d exact of 4\n%s", rep.Exact, rep)
	}
}
