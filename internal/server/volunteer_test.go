package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/router"
)

// received and sent are a daemon's protocol message counts, from its
// own registry.
func received(s *Server) int { return s.reg.Snapshot().Nodes[s.cfg.Name].MessagesReceived }
func sent(s *Server) int     { return s.reg.Snapshot().Nodes[s.cfg.Name].MessagesSent }

// settle waits until every daemon of the fleet has nothing in flight:
// no state-table entry and, unless Paxos Commit's acceptors may keep
// theirs, no pinned decision (the acks are in), and its cost ledger
// has drained through the audit.
func settle(t *testing.T, fleet []*Server, pins bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range fleet {
		for {
			if rep := s.AuditNow(); !rep.OK() {
				t.Fatalf("%s: %s", s.cfg.Name, rep)
			}
			if s.part.StateTableSize() == 0 && (pins || s.part.PinnedDecisions() == 0) && s.reg.CostLedgerSize() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d states, %d pinned, ledger %+v", s.cfg.Name, s.part.StateTableSize(),
					s.part.PinnedDecisions(), s.reg.CostSnapshot())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestV1UnsolicitedVotes: under PA and Basic 2PC a remote shard whose
// slice writes, or is staged last, votes in its /v1/stage reply (§4
// Unsolicited Vote), so the coordinator sends it no Prepare; a
// read-only slice staged ahead of another still gets its Prepare, as
// its read-only vote releases its locks. Per shape — one remote
// writer, two remote writers, a remote read-only slice, a reader
// staged before a writer and one staged after — a yes-voter receives
// the Commit alone and sends its vote and ack, a read-only volunteer
// receives nothing and sends its vote, a prepared reader receives the
// Prepare and sends its vote, and the coordinator sends only those
// Prepares and the Commits. The reads are right, the response's cost
// is the volunteer form, every daemon's audit is exact and its ledger
// and state table drain. PN, PC, 1PC and Paxos Commit stage without a
// vote and still send the Prepares.
func TestV1UnsolicitedVotes(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	coord, subs := fleet[0], fleet[1:]
	put := func(n, val string) api.Op { return api.Op{Key: keys[n], Op: api.OpPut, Value: val} }
	get := func(n string) api.Op { return api.Op{Key: keys[n], Op: api.OpGet} }
	seq := 0
	for _, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantBaseline} {
		for _, tc := range []struct {
			name string
			ops  func(val string) []api.Op
			// roles per subordinate S1, S2: 'y' volunteers yes, 'r'
			// volunteers read-only, 'p' votes read-only to a Prepare,
			// '-' takes no part.
			roles string
			reads []string
		}{
			{"one remote writer", func(val string) []api.Op { return []api.Op{put("S1", val)} }, "y-", nil},
			{"two remote writers", func(val string) []api.Op { return []api.Op{put("S1", val), put("S2", val)} }, "yy", nil},
			{"remote read-only slice", func(val string) []api.Op { return []api.Op{put("C", val), get("S1")} }, "r-", []string{"S1"}},
			{"reader before writer", func(val string) []api.Op { return []api.Op{get("S1"), put("S2", val)} }, "py", []string{"S1"}},
			{"writer before reader", func(val string) []api.Op { return []api.Op{put("S1", val), get("S2")} }, "yr", []string{"S2"}},
		} {
			seq++
			val := fmt.Sprintf("v%d", seq)
			// The shard each read hits was last written by the previous
			// shape that put there.
			want := map[string]string{}
			for _, n := range tc.reads {
				status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("peek%d", seq), Ops: []api.Op{get(n)}}))
				if status != http.StatusOK || cr.Outcome != "committed" {
					t.Fatalf("peek: status %d resp %+v", status, cr)
				}
				want = cr.Reads
			}
			settle(t, fleet, false)
			before := map[*Server][2]int{}
			for _, s := range fleet {
				before[s] = [2]int{received(s), sent(s)}
			}
			status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("uv%d", seq), Variant: v.String(), Ops: tc.ops(val)}))
			if status != http.StatusOK || cr.Outcome != "committed" {
				t.Fatalf("%v %s: status %d resp %+v", v, tc.name, status, cr)
			}
			if len(cr.Reads) != len(want) || (len(want) > 0 && cr.Reads[keys[tc.reads[0]]] != want[keys[tc.reads[0]]]) {
				t.Fatalf("%v %s: reads %v, want %v", v, tc.name, cr.Reads, want)
			}
			settle(t, fleet, false)

			nsubs, ro, volunteers, prepares, commits := 0, 0, 0, 0, 0
			coordRO := !slices.ContainsFunc(tc.ops(val), func(op api.Op) bool { return op.Key == keys["C"] })
			for i, s := range subs {
				gotIn, gotOut := received(s)-before[s][0], sent(s)-before[s][1]
				wantIn, wantOut := 0, 0
				switch tc.roles[i] {
				case 'y':
					nsubs++
					volunteers++
					commits++
					wantIn, wantOut = 1, 2 // the Commit; the vote and the ack
				case 'r':
					nsubs++
					volunteers++
					ro++
					wantOut = 1 // the vote
				case 'p':
					nsubs++
					prepares++
					ro++
					wantIn, wantOut = 1, 1 // the Prepare; the vote
				}
				if gotIn != wantIn || gotOut != wantOut {
					t.Errorf("%v %s: %s received %d and sent %d messages, want %d and %d",
						v, tc.name, s.cfg.Name, gotIn, gotOut, wantIn, wantOut)
				}
			}
			if got := sent(coord) - before[coord][1]; got != prepares+commits {
				t.Errorf("%v %s: coordinator sent %d messages, want %d Prepares and %d Commits", v, tc.name, got, prepares, commits)
			}
			total, _ := analytic.CommitCostByVotes(v.String(), nsubs, ro, volunteers, coordRO)
			if wantCost := (api.CostSummary{Flows: total.Flows, LogWrites: total.Writes, ForcedWrites: total.Forced}); cr.Cost == nil || *cr.Cost != wantCost {
				t.Errorf("%v %s: cost %+v, want %+v", v, tc.name, cr.Cost, wantCost)
			}
			if ro == 0 && !coordRO {
				if want := analytic.UnsolicitedVote(nsubs+1, nsubs); total != want {
					t.Errorf("%v %s: form %v, want UnsolicitedVote %v", v, tc.name, total, want)
				}
			}
		}
	}
	// The audit saw every commit of both variants, exactly.
	for _, s := range fleet {
		if rep, _ := s.AuditReport(); !rep.OK() || rep.Exact != rep.Checked || rep.Checked == 0 {
			t.Fatalf("%s: %s", s.cfg.Name, rep)
		}
	}

	for _, v := range []protocol.Variant{protocol.VariantPN, protocol.VariantPC, protocol.Variant1PC, protocol.VariantPaxos} {
		seq++
		before := [2]int{received(subs[0]), received(subs[1])}
		status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("uv%d", seq), Variant: v.String(),
			Ops: []api.Op{put("S1", "p"), put("S2", "p")}}))
		if status != http.StatusOK || cr.Outcome != "committed" {
			t.Fatalf("%v: status %d resp %+v", v, status, cr)
		}
		settle(t, fleet, v == protocol.VariantPaxos)
		for i, s := range subs {
			// A Prepare and the outcome, at least (Paxos Commit's accepts
			// come on top).
			if got := received(s) - before[i]; got < 2 {
				t.Errorf("%v: %s received %d messages, want a Prepare and the outcome", v, s.cfg.Name, got)
			}
		}
		if want, _ := analytic.CommitCostByVotes(v.String(), 2, 0, 0, true); cr.Cost == nil || cr.Cost.Flows != want.Flows {
			t.Errorf("%v: cost %+v, want the form with no volunteer %v", v, cr.Cost, want)
		}
	}
}

// TestV1AbortAfterVolunteer: when a later shard's staging fails after
// an earlier one has volunteered its yes vote, the volunteer is
// prepared, so the abort reaches it through the protocol, by the
// variant's rules: it releases its locks, nothing stays in doubt, and
// every daemon's audit is exact, the coordinator and the volunteer
// spending exactly analytic.VolunteerAbortCost.
func TestV1AbortAfterVolunteer(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config {
		return Config{AuditInterval: -1, StageTimeout: 200 * time.Millisecond}
	})
	coord, s1, s2 := fleet[0], fleet[1], fleet[2]
	for i, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantBaseline} {
		// A transaction of S2's own holds the key the last slice puts.
		blocker := protocol.ParseTxID(fmt.Sprintf("blocker%d", i))
		if err := s2.Store().Put(context.Background(), blocker, keys["S2"], "held"); err != nil {
			t.Fatal(err)
		}
		before := received(s1)
		status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("doomed%d", i), Variant: v.String(),
			Ops: []api.Op{{Key: keys["S1"], Op: api.OpPut, Value: "never"}, {Key: keys["S2"], Op: api.OpPut, Value: "never"}}}))
		if status != http.StatusOK || cr.Outcome != "aborted" || !strings.Contains(cr.Abort, "staging on S2") {
			t.Fatalf("%v: status %d resp %+v, want aborted at S2's stage", v, status, cr)
		}
		_ = s2.Store().Abort(blocker)
		settle(t, fleet, false)

		if got := received(s1) - before; got != 1 {
			t.Errorf("%v: S1 received %d messages, want the Abort alone", v, got)
		}
		for _, s := range fleet {
			if n := s.reg.Snapshot().TotalInDoubt(); n != 0 {
				t.Errorf("%v: %s counts %d in-doubt entries", v, s.cfg.Name, n)
			}
		}
		form, _ := analytic.VolunteerAbortCost(v.String(), 1)
		for _, side := range []struct {
			s    *Server
			role metrics.Role
			want analytic.Triplet
		}{{coord, metrics.RoleCoordinator, form.Coordinator}, {s1, metrics.RoleSubordinate, form.Subordinate}} {
			c, n := aggregate(side.s, v, side.role, "aborted")
			if got := (analytic.Triplet{Flows: c.Flows, Writes: c.Writes(), Forced: c.Forced}); n != 1 || got != side.want {
				t.Errorf("%v: %s audited %d aborted entries spending (%v), want one spending (%v)", v, side.s.cfg.Name, n, got, side.want)
			}
		}
		// S1's lock is free: the same put commits, and a read sees it.
		status, cr, _ = postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: fmt.Sprintf("after%d", i), Variant: v.String(),
			Ops: []api.Op{{Key: keys["S1"], Op: api.OpPut, Value: "after"}}}))
		if status != http.StatusOK || cr.Outcome != "committed" {
			t.Fatalf("%v: put after the abort: status %d resp %+v", v, status, cr)
		}
		settle(t, fleet, false)
	}
	for _, s := range fleet {
		if rep, _ := s.AuditReport(); !rep.OK() || rep.Exact != rep.Checked {
			t.Fatalf("%s: %s", s.cfg.Name, rep)
		}
	}
}

// TestV1VolunteerKeepsTwoPhaseLocking runs the write-skew schedule
// that a read-only vote ahead of a later stage would let through. T1
// reads x on S1, then writes w and y on S2; a blocker holds w, so T1
// waits at S2 after S1 has staged its read. T2 then writes x on S1 and
// y on S2. S1 is not asked for T1's vote, as a later slice is still to
// be staged, so it holds T1's shared lock on x and T2 waits for T1:
// T1, which read the x before T2's, serializes first and y ends as T2
// wrote it. Had S1 voted read-only in its stage reply, it would have
// released x, T2 would have committed in between, and T1's y would
// have overwritten T2's: no serial order gives that.
func TestV1VolunteerKeepsTwoPhaseLocking(t *testing.T) {
	fleet, _ := newShardedTrio(t, func(string) Config {
		return Config{AuditInterval: -1, StageTimeout: 5 * time.Second}
	})
	coord, s1, s2 := fleet[0], fleet[1], fleet[2]
	smap, err := router.Parse(trioSpec)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string][]string{}
	for k := 0; len(owned["S1"]) < 2 || len(owned["S2"]) < 4; k++ {
		key := fmt.Sprintf("k%d", k)
		owned[smap.Owner(key)] = append(owned[smap.Owner(key)], key)
	}
	commit := func(req api.CommitRequest) *api.CommitResponse {
		cr, err := coord.runV1(context.Background(), req)
		if err != nil {
			return &api.CommitResponse{Outcome: "error", Abort: err.Error()}
		}
		return cr
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for i, v := range []protocol.Variant{protocol.VariantPA, protocol.VariantBaseline} {
		x, w, y := owned["S1"][i], owned["S2"][2*i], owned["S2"][2*i+1]
		if cr := commit(api.CommitRequest{Tx: fmt.Sprintf("skew-init%d", i), Variant: v.String(),
			Ops: []api.Op{{Key: x, Op: api.OpPut, Value: "x0"}, {Key: y, Op: api.OpPut, Value: "y0"}}}); cr.Outcome != "committed" {
			t.Fatalf("%v: init %+v", v, cr)
		}
		blocker := protocol.ParseTxID(fmt.Sprintf("skew-blocker%d", i))
		if err := s2.Store().Put(context.Background(), blocker, w, "held"); err != nil {
			t.Fatal(err)
		}
		t1, t2 := make(chan *api.CommitResponse, 1), make(chan *api.CommitResponse, 1)
		go func() {
			t1 <- commit(api.CommitRequest{Tx: fmt.Sprintf("skew-t1-%d", i), Variant: v.String(), Ops: []api.Op{
				{Key: x, Op: api.OpGet}, {Key: w, Op: api.OpPut, Value: "t1"}, {Key: y, Op: api.OpPut, Value: "t1"}}})
		}()
		waitFor("T1 to wait for w on S2", func() bool { return s2.Store().Locks().TotalWaiters() == 1 })
		go func() {
			t2 <- commit(api.CommitRequest{Tx: fmt.Sprintf("skew-t2-%d", i), Variant: v.String(), Ops: []api.Op{
				{Key: x, Op: api.OpPut, Value: "t2"}, {Key: y, Op: api.OpPut, Value: "t2"}}})
		}()
		// T2 either waits for x on S1 or, if S1 let x go, runs through.
		waitFor("T2 to wait for x on S1 or finish", func() bool { return s1.Store().Locks().TotalWaiters() == 1 || len(t2) == 1 })
		if err := s2.Store().Abort(blocker); err != nil {
			t.Fatal(err)
		}
		r1, r2 := <-t1, <-t2
		if r1.Outcome != "committed" {
			t.Fatalf("%v: T1 %+v", v, r1)
		}
		final := commit(api.CommitRequest{Tx: fmt.Sprintf("skew-read%d", i), Ops: []api.Op{{Key: y, Op: api.OpGet}}})
		if final.Outcome != "committed" {
			t.Fatalf("%v: read-back %+v", v, final)
		}
		// T1 read x before T2 wrote it, so T1 comes first and T2's y is
		// the last one; T1 reading T2's x would put T1 last.
		wantY := "t1" // T2 aborted, or T1 read T2's x and came last
		if r2.Outcome == "committed" && r1.Reads[x] != "t2" {
			wantY = "t2"
		}
		if got := final.Reads[y]; got != wantY {
			t.Fatalf("%v: T1 read x=%q, T2 %s, y=%q: not serializable, want y=%q", v, r1.Reads[x], r2.Outcome, got, wantY)
		}
		settle(t, fleet, false)
	}
}

// TestV1StageRefusesRememberedTx: a client may reuse a transaction
// name. A shard that still remembers the name (here, its kept
// read-only vote) refuses the stage with 409, so it stages nothing no
// Prepare or outcome would reach: the reused transaction aborts, the
// shard's key stays free, and nothing lingers.
func TestV1StageRefusesRememberedTx(t *testing.T) {
	fleet, keys := newShardedTrio(t, func(string) Config { return Config{AuditInterval: -1} })
	coord, s1 := fleet[0], fleet[1]
	status, cr, _ := postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: "dup", Variant: "PA",
		Ops: []api.Op{{Key: keys["C"], Op: api.OpPut, Value: "1"}, {Key: keys["S1"], Op: api.OpGet}}}))
	if status != http.StatusOK || cr.Outcome != "committed" {
		t.Fatalf("first: status %d resp %+v", status, cr)
	}
	if !s1.part.Remembers("dup") {
		t.Fatal("S1 keeps no read-only vote for dup")
	}
	// PN sends Prepares, so S1 would otherwise answer from the kept vote.
	status, cr, _ = postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: "dup", Variant: "PN",
		Ops: []api.Op{{Key: keys["C"], Op: api.OpPut, Value: "2"}, {Key: keys["S1"], Op: api.OpPut, Value: "2"}}}))
	if status != http.StatusOK || cr.Outcome != "aborted" || !strings.Contains(cr.Abort, "staging on S1") {
		t.Fatalf("reused name: status %d resp %+v, want aborted at S1's stage", status, cr)
	}
	if n := s1.Store().Locks().TableSize(); n != 0 {
		t.Fatalf("S1 holds %d lock entries after the refusal", n)
	}
	status, cr, _ = postV1(t, coord, commitJSON(t, api.CommitRequest{Tx: "fresh", Variant: "PN",
		Ops: []api.Op{{Key: keys["S1"], Op: api.OpPut, Value: "3"}, {Key: keys["S1"], Op: api.OpGet}}}))
	if status != http.StatusOK || cr.Outcome != "committed" || cr.Reads[keys["S1"]] != "3" {
		t.Fatalf("fresh: status %d resp %+v", status, cr)
	}
	settle(t, fleet, false)
}
