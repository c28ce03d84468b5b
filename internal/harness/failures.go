package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// CrashPoint identifies where in the protocol a failure is injected.
type CrashPoint int

// Crash points along the commit protocol's timeline.
const (
	// CrashSubBeforeVote: the subordinate dies after receiving the
	// Prepare but before it votes.
	CrashSubBeforeVote CrashPoint = iota
	// CrashSubAfterPrepare: the subordinate dies prepared (in doubt).
	CrashSubAfterPrepare
	// CrashCoordBeforeDecision: the coordinator dies after collecting
	// votes but before forcing its decision record.
	CrashCoordBeforeDecision
	// CrashCoordAfterCommit: the coordinator dies after forcing
	// Committed but before (all) Commit messages are delivered.
	CrashCoordAfterCommit
	// CrashSubAfterCommit: the subordinate dies after committing but
	// before its acknowledgment is delivered.
	CrashSubAfterCommit
)

var crashPointNames = map[CrashPoint]string{
	CrashSubBeforeVote:       "sub before vote",
	CrashSubAfterPrepare:     "sub after prepare (in doubt)",
	CrashCoordBeforeDecision: "coord before decision",
	CrashCoordAfterCommit:    "coord after commit force",
	CrashSubAfterCommit:      "sub after commit, before ack",
}

// String returns a human-readable name for the crash point.
func (p CrashPoint) String() string {
	if s, ok := crashPointNames[p]; ok {
		return s
	}
	return fmt.Sprintf("crash-point(%d)", int(p))
}

// FailureOutcome records how one (variant, crash point) cell resolved.
type FailureOutcome struct {
	Variant    protocol.Variant
	Point      CrashPoint
	RootResult core.Outcome // what the application at the root saw
	SubResult  core.Outcome // what the subordinate ended with
	SubBlocked bool         // subordinate still in doubt when the dust settled
	Consistent bool         // no commit/abort divergence
}

// FailureMatrix runs a two-node commit under every variant with a
// crash injected at every protocol point (the crashed node restarts
// shortly after), and reports how each cell resolves. It is the
// systematic version of Table 1's reliability column: basic 2PC
// blocks where the presumptions or the pending records rescue PA and
// PN.
func FailureMatrix() ([]FailureOutcome, error) {
	var out []FailureOutcome
	for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
		for p := CrashSubBeforeVote; p <= CrashSubAfterCommit; p++ {
			cell, err := runFailureCell(v, p)
			if err != nil {
				return nil, fmt.Errorf("failure matrix %v/%v: %w", v, p, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func runFailureCell(v protocol.Variant, p CrashPoint) (FailureOutcome, error) {
	opts := core.Options{}
	if v != protocol.VariantBaseline {
		opts.ReadOnly = true
	}
	eng := core.NewEngine(core.Config{
		Variant:     v,
		Options:     opts,
		AckTimeout:  5 * time.Millisecond,
		VoteTimeout: 15 * time.Millisecond,
	})
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(protocol.NewStaticResource("rc"))
	eng.AddNode("S").AttachResource(protocol.NewStaticResource("rs"))
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "w"); err != nil {
		return FailureOutcome{}, err
	}
	pend := tx.CommitAsync("C")

	// Step the simulation to the chosen point, then crash.
	var victim protocol.NodeID
	reached := func() bool {
		switch p {
		case CrashSubBeforeVote:
			victim = "S"
			for _, f := range eng.LogRecords("S") {
				_ = f
			}
			// "Before vote" = Prepare delivered; detect via S having a
			// context but no Prepared record. Simplest determinate
			// trigger: one delivery event has happened at S.
			return eng.Metrics().Node("S").MessagesReceived >= 2 // data + prepare
		case CrashSubAfterPrepare:
			victim = "S"
			return hasRecord(eng, "S", protocol.RecPrepared)
		case CrashCoordBeforeDecision:
			victim = "C"
			// The vote is in flight: S has forced Prepared but C has
			// not yet processed the delivery (a decision would be
			// taken in the same event). Crashing here loses the vote
			// and leaves the coordinator without any decision record.
			return hasRecord(eng, "S", protocol.RecPrepared) && eng.Metrics().Node("C").MessagesReceived == 0
		case CrashCoordAfterCommit:
			victim = "C"
			return hasRecord(eng, "C", protocol.RecCommitted)
		case CrashSubAfterCommit:
			victim = "S"
			return hasRecord(eng, "S", protocol.RecCommitted)
		}
		return false
	}
	for !reached() {
		if !eng.Step() {
			// The protocol finished before the crash point was
			// reachable (e.g. votes race); treat as clean completion.
			break
		}
	}
	eng.Crash(victim)
	eng.Restart(victim, 10*time.Millisecond)
	eng.Drain()

	cell := FailureOutcome{Variant: v, Point: p}
	if r, done := pend.Result(); done {
		cell.RootResult = r.Outcome
	} else {
		cell.RootResult = core.OutcomePending
	}
	if o, ok := eng.OutcomeAt("S", tx.ID()); ok {
		cell.SubResult = o
	}
	cell.SubBlocked = eng.InDoubtAt("S", tx.ID())
	cell.Consistent = !(isCommit(cell.RootResult) && cell.SubResult == core.OutcomeAborted) &&
		!(cell.RootResult == core.OutcomeAborted && isCommit(cell.SubResult))
	return cell, nil
}

func isCommit(o core.Outcome) bool {
	return o == core.OutcomeCommitted || o == core.OutcomeHeuristicMixed
}

func hasRecord(eng *core.Engine, node protocol.NodeID, kind string) bool {
	for _, r := range eng.LogRecords(node) {
		if r.Kind == kind {
			return true
		}
	}
	return false
}

// RenderFailureMatrix formats the matrix with one row per cell.
func RenderFailureMatrix(cells []FailureOutcome) string {
	var b strings.Builder
	b.WriteString("Failure matrix — crash + restart at every protocol point (2 nodes)\n")
	fmt.Fprintf(&b, "%-10s %-30s %-12s %-12s %-8s %s\n",
		"variant", "crash point", "root sees", "sub sees", "blocked", "consistent")
	b.WriteString(strings.Repeat("-", 90) + "\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %-30s %-12s %-12s %-8v %v\n",
			c.Variant, c.Point, c.RootResult, c.SubResult, c.SubBlocked, c.Consistent)
	}
	return b.String()
}
