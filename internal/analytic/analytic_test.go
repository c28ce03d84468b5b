package analytic

import "testing"

// The paper's Table 3 example: n=11, m=4.
func TestTable3PaperExample(t *testing.T) {
	cases := []struct {
		name string
		got  Triplet
		want Triplet
	}{
		{"Basic2PC", Basic2PC(11), Triplet{40, 32, 21}},
		{"ReadOnly", ReadOnly(11, 4), Triplet{32, 20, 13}},
		{"LastAgent", LastAgent(11, 4), Triplet{32, 32, 21}},
		{"UnsolicitedVote", UnsolicitedVote(11, 4), Triplet{36, 32, 21}},
		{"LeaveOut", LeaveOut(11, 4), Triplet{24, 20, 13}},
		{"VoteReliable", VoteReliable(11, 4), Triplet{36, 32, 21}},
		{"WaitForOutcome", WaitForOutcome(11, 4), Triplet{40, 32, 21}},
		{"SharedLogs", SharedLogs(11, 4), Triplet{40, 32, 13}},
		{"LongLocks", LongLocks(11, 4), Triplet{36, 32, 21}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// The paper's Table 4 example: r=12.
func TestTable4PaperExample(t *testing.T) {
	if got, want := Table4Basic(12), (Triplet{48, 60, 36}); got != want {
		t.Errorf("Table4Basic = %v, want %v", got, want)
	}
	if got, want := Table4LongLocks(12), (Triplet{36, 60, 36}); got != want {
		t.Errorf("Table4LongLocks = %v, want %v", got, want)
	}
	if got, want := Table4LongLocksLastAgent(12), (Triplet{18, 60, 36}); got != want {
		t.Errorf("Table4LongLocksLastAgent = %v, want %v", got, want)
	}
}

// Table 2 is the n=2 column of the same formulas.
func TestTable2TwoParticipants(t *testing.T) {
	if got, want := Basic2PC(2), (Triplet{4, 5, 3}); got != want {
		t.Errorf("Basic2PC(2) = %v, want %v", got, want)
	}
	if got, want := PN(2), (Triplet{4, 7, 5}); got != want {
		t.Errorf("PN(2) = %v, want %v", got, want)
	}
	if got, want := PAReadOnlyAll(2), (Triplet{2, 0, 0}); got != want {
		t.Errorf("PAReadOnlyAll(2) = %v, want %v", got, want)
	}
}

func TestPNAddsPendingEverywhere(t *testing.T) {
	for n := 2; n <= 12; n++ {
		b, p := Basic2PC(n), PN(n)
		if p.Writes-b.Writes != n || p.Forced-b.Forced != n {
			t.Fatalf("n=%d: PN delta = %d writes, %d forced; want n each",
				n, p.Writes-b.Writes, p.Forced-b.Forced)
		}
		if p.Flows != b.Flows {
			t.Fatalf("n=%d: PN should not change flows", n)
		}
	}
}

func TestSavingsAreMonotoneInM(t *testing.T) {
	type fn func(n, m int) Triplet
	for name, f := range map[string]fn{
		"ReadOnly": ReadOnly, "LeaveOut": LeaveOut, "LastAgent": LastAgent,
		"UnsolicitedVote": UnsolicitedVote, "VoteReliable": VoteReliable,
		"SharedLogs": SharedLogs, "LongLocks": LongLocks,
	} {
		prev := f(11, 0)
		if prev != Basic2PC(11) {
			t.Errorf("%s(n,0) != Basic2PC(n)", name)
		}
		for m := 1; m <= 10; m++ {
			cur := f(11, m)
			if cur.Flows > prev.Flows || cur.Writes > prev.Writes || cur.Forced > prev.Forced {
				t.Errorf("%s not monotone at m=%d: %v -> %v", name, m, prev, cur)
			}
			prev = cur
		}
	}
}

func TestGroupCommit(t *testing.T) {
	if got := GroupCommitSyncs(10, 1); got != 30 {
		t.Errorf("size-1 group commit syncs = %d, want 30", got)
	}
	if got := GroupCommitSyncs(10, 5); got != 6 {
		t.Errorf("size-5 group commit syncs = %d, want 6", got)
	}
	if got := GroupCommitSyncs(10, 0); got != 30 {
		t.Errorf("size clamping failed: %d", got)
	}
	if got := GroupCommitSavings(10, 5); got != 24 {
		t.Errorf("savings = %d, want 24", got)
	}
	// Paper's simple model: savings ≈ 3n(1-1/m) when m divides 3n.
	if got, want := GroupCommitSavings(10, 3), 3*10-10; got != want {
		t.Errorf("savings = %d, want %d", got, want)
	}
}

// The per-role commit forms must recombine to the whole-tree forms
// the tables use — the conformance audit depends on both views naming
// the same spend. Under Paxos Commit the subordinates that host an
// acceptor (all acceptors but the coordinator's) take
// PaxosAcceptorSubCost instead of the plain share.
func TestRoleCostsRecombine(t *testing.T) {
	whole := map[string]func(n int) Triplet{
		"Basic2PC":    Basic2PC,
		"PA":          PACommit,
		"PN":          PNLive,
		"PC":          PC,
		"PaxosCommit": PaxosCommitTotal,
		"1PC":         OnePhase,
	}
	for variant, form := range whole {
		for subs := 1; subs <= 8; subs++ {
			rc, ok := CommitCostByRole(variant, subs)
			if !ok {
				t.Fatalf("CommitCostByRole(%q) not ok", variant)
			}
			accSubs := 0
			if variant == "PaxosCommit" {
				accSubs = PaxosAcceptorCount(subs) - 1
			}
			total := rc.Coordinator
			for i := 0; i < subs; i++ {
				share := rc.Subordinate
				if i < accSubs {
					share = PaxosAcceptorSubCost(PaxosAcceptorCount(subs))
				}
				total = total.Add(share)
			}
			if want := form(subs + 1); total != want {
				t.Errorf("%s subs=%d: roles recombine to %v, want %v", variant, subs, total, want)
			}
		}
	}
	if _, ok := CommitCostByRole("nonsense", 1); ok {
		t.Error("unknown variant accepted")
	}
}

// The per-node forms with m unsolicited voters recombine to §4's
// Unsolicited Vote row: each volunteer saves its Prepare flow and
// nothing else, and a read-only volunteer saves it on top of Read
// Only's savings.
func TestVolunteerFormsRecombine(t *testing.T) {
	for _, variant := range []string{"Basic2PC", "PA"} {
		for subs := 1; subs <= 6; subs++ {
			for m := 0; m <= subs; m++ {
				got, ok := CommitCostByVotes(variant, subs, 0, m, false)
				if want := UnsolicitedVote(subs+1, m); !ok || got != want {
					t.Errorf("%s subs=%d m=%d: %v, want UnsolicitedVote %v", variant, subs, m, got, want)
				}
				for ro := 1; ro <= subs && ro <= m; ro++ {
					got, _ := CommitCostByVotes(variant, subs, ro, m, false)
					want := ReadOnly(subs+1, ro)
					want.Flows -= m
					if got != want {
						t.Errorf("%s subs=%d m=%d ro=%d: %v, want ReadOnly less m flows %v", variant, subs, m, ro, got, want)
					}
				}
			}
			// An abort with no Prepare out stays under the abort
			// ceiling less the Prepares, the subordinates at it.
			va, ok := VolunteerAbortCost(variant, subs)
			ceil, _ := AbortCostBoundByRole(variant, subs)
			ceil.Coordinator.Flows -= subs
			if !ok || exceedsTriplet(va.Coordinator, ceil.Coordinator) || va.Subordinate != ceil.Subordinate {
				t.Errorf("%s subs=%d: volunteer abort %+v against ceiling %+v", variant, subs, va, ceil)
			}
		}
	}
	if _, ok := VolunteerAbortCost("PN", 2); ok {
		t.Error("PN takes no volunteer")
	}
}

// An aborting coordinator sends a Prepare to each subordinate but its
// volunteers and an Abort to each but its read-only voters: every
// Abort told is the ceiling's, every read-only voter takes one off,
// and a tree of volunteers takes VolunteerAbortCost's form.
func TestCoordAbortCostDropsReadOnlyVoters(t *testing.T) {
	for _, variant := range []string{"Basic2PC", "PA", "PN", "PC", "1PC", "PaxosCommit"} {
		for subs := 1; subs <= 4; subs++ {
			ceil, _ := AbortCostBoundByRole(variant, subs)
			if got, ok := CoordAbortCost(variant, subs, subs, 0); !ok || got != ceil.Coordinator {
				t.Errorf("%s subs=%d: every one told %v, want the ceiling %v", variant, subs, got, ceil.Coordinator)
			}
			for ro := 0; ro <= subs; ro++ {
				want := ceil.Coordinator
				want.Flows -= ro
				if got, _ := CoordAbortCost(variant, subs, subs-ro, 0); got != want {
					t.Errorf("%s subs=%d ro=%d: %v, want %v", variant, subs, ro, got, want)
				}
				va, ok := VolunteerAbortCost(variant, subs)
				if !ok {
					continue
				}
				want = va.Coordinator
				want.Flows -= ro
				if got, _ := CoordAbortCost(variant, subs, subs-ro, subs); got != want {
					t.Errorf("%s subs=%d volunteers ro=%d: %v, want %v", variant, subs, ro, got, want)
				}
			}
		}
	}
	if _, ok := CoordAbortCost("nope", 1, 1, 0); ok {
		t.Error("an unknown variant has a form")
	}
}

func exceedsTriplet(a, b Triplet) bool {
	return a.Flows > b.Flows || a.Writes > b.Writes || a.Forced > b.Forced
}

// The live runtime's PN must never exceed the paper's Table 3 PN
// accounting — it undercuts it by folding each subordinate's pending
// state into the Prepared record.
func TestPNLiveWithinPaperBudget(t *testing.T) {
	for n := 2; n <= 12; n++ {
		live, paper := PNLive(n), PN(n)
		if live.Flows > paper.Flows || live.Writes > paper.Writes || live.Forced > paper.Forced {
			t.Fatalf("n=%d: PNLive %v exceeds paper PN %v", n, live, paper)
		}
		if live != (Triplet{paper.Flows, paper.Writes - (n - 1), paper.Forced - (n - 1)}) {
			t.Fatalf("n=%d: PNLive %v should save exactly n-1 writes and forces over %v", n, live, paper)
		}
	}
}

// Abort bounds must dominate the commit-case forms nowhere cheaper
// than the runtime can actually hit, and stay within the commit cost
// per role (an abort never out-spends a commit under any variant).
func TestAbortBoundsDominateNothingOdd(t *testing.T) {
	for _, variant := range []string{"Basic2PC", "PA", "PN", "PC"} {
		for subs := 1; subs <= 4; subs++ {
			ab, ok := AbortCostBoundByRole(variant, subs)
			if !ok {
				t.Fatalf("AbortCostBoundByRole(%q) not ok", variant)
			}
			cm, _ := CommitCostByRole(variant, subs)
			if ab.Coordinator.Flows > cm.Coordinator.Flows || ab.Coordinator.Forced > cm.Coordinator.Forced+1 {
				t.Errorf("%s subs=%d: coordinator abort bound %v vs commit %v", variant, subs, ab.Coordinator, cm.Coordinator)
			}
			if ab.Subordinate.Writes > 3 {
				t.Errorf("%s: subordinate abort bound %v exceeds 3 writes", variant, ab.Subordinate)
			}
		}
	}
	if got := ReadOnlySubCost(); got != (Triplet{Flows: 1}) {
		t.Errorf("ReadOnlySubCost = %v", got)
	}
}

func TestTripletString(t *testing.T) {
	if got := (Triplet{40, 32, 21}).String(); got != "40, 32, 21" {
		t.Errorf("String = %q", got)
	}
}

func TestPCFormula(t *testing.T) {
	// n=2: coord (2 flows, pending*+committed*+End), sub (1 flow,
	// prepared*+committed+End) → totals (3, 6, 3).
	if got, want := PC(2), (Triplet{Flows: 3, Writes: 6, Forced: 3}); got != want {
		t.Fatalf("PC(2) = %v, want %v", got, want)
	}
	// PC's flow saving equals read-only's ack-side saving and grows
	// with fan-out, while forced writes drop n-2 below basic.
	for n := 2; n <= 12; n++ {
		b, p := Basic2PC(n), PC(n)
		if b.Flows-p.Flows != n-1 {
			t.Fatalf("n=%d: flow saving %d, want n-1", n, b.Flows-p.Flows)
		}
		if b.Forced-p.Forced != n-2 {
			t.Fatalf("n=%d: forced saving %d, want n-2", n, b.Forced-p.Forced)
		}
	}
}
