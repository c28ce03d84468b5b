package check

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// eb builds hand-written traces for oracle unit tests, assigning
// sequence numbers in call order like a real Tracer would.
type eb struct {
	seq int
	evs []trace.Event
}

func (b *eb) ev(node string, k trace.Kind, detail string) *eb {
	b.seq++
	b.evs = append(b.evs, trace.Event{Seq: b.seq, Node: node, Kind: k, Tx: "C:1", Detail: detail})
	return b
}

func (b *eb) msg(from, to, label string) *eb {
	b.seq++
	b.evs = append(b.evs, trace.Event{Seq: b.seq, Node: from, Peer: to, Kind: trace.KindSend, Tx: "C:1", Detail: label + "(C:1)"})
	b.seq++
	b.evs = append(b.evs, trace.Event{Seq: b.seq, Node: to, Peer: from, Kind: trace.KindReceive, Tx: "C:1", Detail: label + "(C:1)"})
	return b
}

func (b *eb) force(node, kind string) *eb {
	b.seq++
	b.evs = append(b.evs, trace.Event{Seq: b.seq, Node: node, Kind: trace.KindLogWrite, Tx: "C:1", Detail: kind, Forced: true})
	return b
}

func (b *eb) lazy(node, kind string) *eb {
	b.seq++
	b.evs = append(b.evs, trace.Event{Seq: b.seq, Node: node, Kind: trace.KindLogWrite, Tx: "C:1", Detail: kind, Forced: false})
	return b
}

func (b *eb) decide(node, outcome string) *eb {
	return b.ev(node, trace.KindDecision, outcome+"(C:1)")
}

func (b *eb) unlock(node string) *eb {
	return b.ev(node, trace.KindUnlock, "released(C:1)")
}

func rules(vs []Violation) string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Rule)
	}
	return strings.Join(out, ",")
}

func wantRule(t *testing.T, vs []Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Errorf("expected a %s violation, got [%s] %v", rule, rules(vs), vs)
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) > 0 {
		t.Errorf("expected a clean run, got: %v", vs)
	}
}

// baselineCommit is a correct baseline two-phase commit between C and
// S1, the fixture the rule tests perturb.
func baselineCommit() *eb {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	b.force("C", "Committed")
	b.decide("C", "commit")
	b.unlock("C")
	b.msg("C", "S1", "Commit")
	b.force("S1", "Committed")
	b.decide("S1", "commit")
	b.unlock("S1")
	b.lazy("S1", "End")
	b.msg("S1", "C", "Ack")
	b.lazy("C", "End")
	return b
}

func check(v protocol.Variant, evs []trace.Event, final map[string]Final) []Violation {
	return Check(Run{Variant: v, Events: evs, Final: final})
}

func TestOracleCleanBaselineCommit(t *testing.T) {
	wantClean(t, check(protocol.VariantBaseline, baselineCommit().evs, nil))
}

func TestOracleAC1ConflictingOutcomes(t *testing.T) {
	b := baselineCommit()
	b.decide("S2", "abort") // a third participant applies the other outcome
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC1")

	// The same divergence behind a forced Heuristic record is the
	// sanctioned exception — AC1 stays quiet (AC4 owns the reporting).
	b2 := baselineCommit()
	b2.force("S2", "Heuristic")
	b2.decide("S2", "abort")
	wantClean(t, check(protocol.VariantBaseline, b2.evs, nil))
}

func TestOracleAC1FinalStateDisagrees(t *testing.T) {
	final := map[string]Final{
		"S1": {Outcomes: map[string]bool{"C:1": false}}, // applied abort
	}
	wantRule(t, check(protocol.VariantBaseline, baselineCommit().evs, final), "AC1")
}

func TestOracleAC2CommitWithoutVote(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("C", "Committed")
	b.decide("C", "commit") // no vote ever arrived
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC2")
}

func TestOracleAC2CommitAfterNoVote(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.msg("S1", "C", "VoteNo")
	b.force("C", "Committed")
	b.decide("C", "commit")
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC2")
}

func TestOracleAC2SubordinateInventsCommit(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	b.force("S1", "Committed")
	b.decide("S1", "commit") // never told the outcome
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC2")
}

func TestOracleAC3VoteWithoutForce(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.msg("S1", "C", "VoteYes") // no Prepared record forced
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC3")
}

func TestOracleAC3LazyRecords(t *testing.T) {
	// A lazy Committed at a baseline subordinate is a skipped force.
	b := baselineCommit()
	for i := range b.evs {
		if b.evs[i].Node == "S1" && b.evs[i].Detail == "Committed" {
			b.evs[i].Forced = false
		}
	}
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC3")

	// The same lazy write at a PC subordinate is the optimization.
	b2 := &eb{}
	b2.force("C", "Collecting")
	b2.msg("C", "S1", "Prepare")
	b2.force("S1", "Prepared")
	b2.msg("S1", "C", "VoteYes")
	b2.force("C", "Committed")
	b2.decide("C", "commit")
	b2.unlock("C")
	b2.msg("C", "S1", "Commit")
	b2.lazy("S1", "Committed")
	b2.decide("S1", "commit")
	b2.unlock("S1")
	b2.lazy("S1", "End")
	b2.lazy("C", "End")
	wantClean(t, check(protocol.VariantPC, b2.evs, nil))
}

func TestOracleAC3MissingPendingRecord(t *testing.T) {
	// PN requires the coordinator's forced pending record before any
	// Prepare leaves; dropping it must trip the oracle.
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	b.force("C", "Committed")
	b.decide("C", "commit")
	wantRule(t, check(protocol.VariantPN, b.evs, nil), "AC3")
}

// TestOracleAC3DelegationRecord pins what stands for a delegation: a
// forced Prepared record, or — only for an initiator whose one partner
// is the agent — its forced pre-prepare record.
func TestOracleAC3DelegationRecord(t *testing.T) {
	has := func(vs []Violation) bool { return strings.Contains(rules(vs), "AC3") }
	// The simulator's single-partner case: the pending record names A.
	b := &eb{}
	b.force("C", "Pending")
	b.msg("C", "A", "VoteYes+LastAgent")
	if vs := check(protocol.VariantPN, b.evs, nil); has(vs) {
		t.Errorf("single-partner delegation on the pending record: %v", vs)
	}
	// With a Prepare sent first, the pending record does not name the
	// agent: a Prepared record must be forced.
	multi := func(prepared bool) []trace.Event {
		b := &eb{}
		b.force("C", "Pending")
		b.msg("C", "S1", "Prepare")
		b.force("S1", "Prepared")
		b.msg("S1", "C", "VoteYes")
		if prepared {
			b.force("C", "Prepared")
		}
		b.msg("C", "A", "VoteYes+LastAgent")
		return b.evs
	}
	wantRule(t, check(protocol.VariantPN, multi(false), nil), "AC3")
	if vs := check(protocol.VariantPN, multi(true), nil); has(vs) {
		t.Errorf("delegation on a forced Prepared record: %v", vs)
	}
	// The runtime's delegation after yes votes: its collecting record
	// never names the agent.
	b = &eb{}
	b.force("C", "Collecting")
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	b.msg("C", "A", "Prepare+Delegate")
	wantRule(t, check(protocol.VariantPC, b.evs, nil), "AC3")
}

func TestOracleAC3PAAbortNeedsNoForce(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	b.decide("C", "abort")
	b.unlock("C")
	b.msg("C", "S1", "Abort") // PA: nothing logged, and that is fine
	b.lazy("S1", "Aborted")
	b.decide("S1", "abort")
	b.unlock("S1")
	wantClean(t, check(protocol.VariantPA, b.evs, nil))

	// The identical trace under baseline is a missed force.
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC3")
}

func TestOracleAC4InDoubtAfterRecovery(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.msg("S1", "C", "VoteYes")
	final := map[string]Final{"S1": {InDoubt: map[string]bool{"C:1": true}}}

	wantRule(t, check(protocol.VariantPA, b.evs, final), "AC4")

	// Baseline blocking is the paper's known pathology, not a bug.
	wantClean(t, check(protocol.VariantBaseline, b.evs, final))

	// A node that is still down is excused too.
	crashed := map[string]Final{"S1": {Crashed: true, InDoubt: map[string]bool{"C:1": true}}}
	wantClean(t, check(protocol.VariantPA, b.evs, crashed))
}

func TestOracleAC4PNHeuristicReport(t *testing.T) {
	mk := func(ackLabel string) []trace.Event {
		b := &eb{}
		b.force("C", "Pending")
		b.msg("C", "S1", "Prepare")
		b.force("S1", "Prepared")
		b.msg("S1", "C", "VoteYes")
		b.force("C", "Committed")
		b.decide("C", "commit")
		b.unlock("C")
		b.msg("C", "S1", "Commit")
		b.force("S1", "Heuristic")
		b.decide("S1", "abort") // heuristic divergence
		b.unlock("S1")
		b.msg("S1", "C", ackLabel)
		return b.evs
	}
	// PN demands the damage ride the acknowledgment to the root.
	wantRule(t, check(protocol.VariantPN, mk("Ack"), nil), "AC4")
	wantClean(t, check(protocol.VariantPN, mk("Ack+Heuristics"), nil))
}

func TestOracleAC5EarlyUnlock(t *testing.T) {
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.force("S1", "Prepared")
	b.unlock("S1") // released while still in doubt
	b.msg("S1", "C", "VoteYes")
	wantRule(t, check(protocol.VariantBaseline, b.evs, nil), "AC5")
}

func TestOracleAC5ReadOnlyUnlock(t *testing.T) {
	// A read-only voter exits after its vote: early release is the
	// optimization, not a bug.
	b := &eb{}
	b.msg("C", "S1", "Prepare")
	b.msg("S1", "C", "VoteReadOnly")
	b.unlock("S1")
	wantClean(t, check(protocol.VariantPA, b.evs, nil))
}
