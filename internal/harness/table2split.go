package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/protocol"
)

// RoleCost is one side of a Table 2 row: flows sent and log writes
// at either the coordinator or the subordinate.
type RoleCost struct {
	Flows  int
	Writes int
	Forced int
}

// String renders "f | w, fw forced" in the paper's cell style.
func (r RoleCost) String() string {
	return fmt.Sprintf("%d | %d, %d forced", r.Flows, r.Writes, r.Forced)
}

// SplitRow is one Table 2 row in the paper's own per-role layout.
type SplitRow struct {
	Name       string
	PaperCoord RoleCost
	PaperSub   RoleCost
	MeasCoord  RoleCost
	MeasSub    RoleCost
	Note       string
}

// Match reports whether both roles match the paper exactly.
func (r SplitRow) Match() bool {
	return r.PaperCoord == r.MeasCoord && r.PaperSub == r.MeasSub
}

// roleRun commits a two-node transaction and returns per-role costs.
// The data flow from C to S is excluded from C's flow count (the
// paper counts commit-protocol messages only).
func roleRun(cfg core.Config, coordRes, subRes protocol.Resource, unsolicited bool, expectAbort bool) (RoleCost, RoleCost, error) {
	eng := core.NewEngine(cfg)
	eng.DisableTrace()
	eng.AddNode("C").AttachResource(coordRes)
	eng.AddNode("S").AttachResource(subRes)
	tx := eng.Begin("C")
	if err := tx.Send("C", "S", "work"); err != nil {
		return RoleCost{}, RoleCost{}, err
	}
	if unsolicited {
		if err := tx.UnsolicitedVote("S"); err != nil {
			return RoleCost{}, RoleCost{}, err
		}
	}
	res := tx.Commit("C")
	eng.FlushSessions()
	want := core.OutcomeCommitted
	if expectAbort {
		want = core.OutcomeAborted
	}
	if res.Outcome != want {
		return RoleCost{}, RoleCost{}, fmt.Errorf("outcome %v, want %v", res.Outcome, want)
	}
	cc := eng.Metrics().Node("C")
	sc := eng.Metrics().Node("S")
	return RoleCost{Flows: cc.ProtocolPackets, Writes: cc.LogWrites, Forced: cc.ForcedWrites},
		RoleCost{Flows: sc.ProtocolPackets, Writes: sc.LogWrites, Forced: sc.ForcedWrites}, nil
}

// Table2Split regenerates Table 2 in the paper's per-role layout.
func Table2Split() ([]SplitRow, error) {
	upd := func(name string) protocol.Resource { return protocol.NewStaticResource(name) }
	type spec struct {
		name        string
		cfg         core.Config
		coord, sub  protocol.Resource
		unsolicited bool
		abort       bool
		paperC      RoleCost
		paperS      RoleCost
		note        string
	}
	specs := []spec{
		{
			name: "Basic 2PC", cfg: core.Config{Variant: protocol.VariantBaseline},
			coord: upd("rc"), sub: upd("rs"),
			paperC: RoleCost{2, 2, 1}, paperS: RoleCost{2, 3, 2},
			note: "Prepare/Commit out; Committed*+End vs Prepared*+Committed*+End",
		},
		{
			name: "PN", cfg: core.Config{Variant: protocol.VariantPN},
			coord: upd("rc"), sub: upd("rs"),
			paperC: RoleCost{2, 3, 2}, paperS: RoleCost{2, 4, 3},
			note: "pending records precede prepares",
		},
		{
			name: "PA, commit", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
			coord: upd("rc"), sub: upd("rs"),
			paperC: RoleCost{2, 2, 1}, paperS: RoleCost{2, 3, 2},
		},
		{
			name: "PA, abort (vote no)", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
			coord: upd("rc"), sub: protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteNo)),
			abort:  true,
			paperC: RoleCost{1, 0, 0}, paperS: RoleCost{1, 0, 0},
			note: "nothing logged anywhere",
		},
		{
			name: "PA, read-only", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
			coord:  protocol.NewStaticResource("rc", protocol.StaticVote(protocol.VoteReadOnly)),
			sub:    protocol.NewStaticResource("rs", protocol.StaticVote(protocol.VoteReadOnly)),
			paperC: RoleCost{1, 0, 0}, paperS: RoleCost{1, 0, 0},
		},
		{
			name: "PA + Last Agent", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, LastAgent: true}},
			coord: upd("rc"), sub: upd("rs"),
			paperC: RoleCost{1, 3, 2}, paperS: RoleCost{1, 2, 1},
			note: "single round trip; coordinator pays the extra force",
		},
		{
			name: "PA + Unsolicited Vote", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true}},
			coord: upd("rc"), sub: upd("rs"), unsolicited: true,
			paperC: RoleCost{1, 2, 1}, paperS: RoleCost{2, 3, 2},
			note: "no Prepare flow",
		},
		{
			name: "PA + Vote Reliable", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, VoteReliable: true}},
			coord:  protocol.NewStaticResource("rc", protocol.StaticReliable()),
			sub:    protocol.NewStaticResource("rs", protocol.StaticReliable()),
			paperC: RoleCost{2, 2, 1}, paperS: RoleCost{1, 3, 2},
			note: "subordinate's ack implied",
		},
		{
			name: "PA + Wait For Outcome", cfg: core.Config{Variant: protocol.VariantPA, Options: core.Options{ReadOnly: true, WaitForOutcome: true}},
			coord: upd("rc"), sub: upd("rs"),
			paperC: RoleCost{2, 2, 1}, paperS: RoleCost{2, 3, 2},
			note: "normal case unchanged",
		},
	}
	var rows []SplitRow
	for _, s := range specs {
		mc, ms, err := roleRun(s.cfg, s.coord, s.sub, s.unsolicited, s.abort)
		if err != nil {
			return nil, fmt.Errorf("table 2 split row %q: %w", s.name, err)
		}
		rows = append(rows, SplitRow{
			Name: s.name, PaperCoord: s.paperC, PaperSub: s.paperS,
			MeasCoord: mc, MeasSub: ms, Note: s.note,
		})
	}
	return rows, nil
}

// RenderSplitRows formats per-role rows like the paper's Table 2.
func RenderSplitRows(title string, rows []SplitRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-24s | %-22s | %-22s | %-22s | %-22s\n",
		"2PC type", "coord paper", "coord measured", "sub paper", "sub measured")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 124))
	for _, r := range rows {
		mark := " "
		if !r.Match() {
			mark = "≈"
		}
		fmt.Fprintf(&b, "%-24s | %-22s | %-21s%s | %-22s | %-22s\n",
			r.Name, r.PaperCoord, r.MeasCoord, mark, r.PaperSub, r.MeasSub)
	}
	return b.String()
}
