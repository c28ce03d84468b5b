package audit

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// TestDrainAndAuditAllocsFlat guards auditing in place: draining and
// auditing a batch of closed transactions allocates the same whether
// the batch holds 4 entries or 64. The ledger is filled up front with
// entries one CostNodeDone short of closing; each measured run closes
// the next batch and drains and audits it, so the fill's own
// allocations stay out of the count.
func TestDrainAndAuditAllocsFlat(t *testing.T) {
	const runs = 20
	perBatch := func(n int) float64 {
		r := metrics.New()
		total := (runs + 1) * n // AllocsPerRun adds one warm-up run
		txs := make([]string, total)
		for i := range txs {
			txs[i] = fmt.Sprintf("t%d", i)
			recordCleanPA(r, txs[i])
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			for _, tx := range txs[next : next+n] {
				r.CostNodeDone(tx, "S2")
			}
			next += n
			rep := Conformance(r.CostDrainClosed())
			if !rep.OK() || rep.Exact != 3*n {
				t.Fatalf("batch of %d: %s", n, rep)
			}
		})
	}
	small, large := perBatch(4), perBatch(64)
	if large > small {
		t.Fatalf("a drained batch of 64 allocates %.0f times, one of 4 %.0f: allocations grow with the entry count", large, small)
	}
}
