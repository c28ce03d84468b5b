package check

import (
	"sync"
	"testing"

	"repro/internal/protocol"
)

// lastAgentSeeds is the last-agent sweep's fixed seed list: for each
// variant that can delegate (Basic 2PC, PA, PN, PC; a logless vote has
// nothing to delegate) and each engine, the first sim and live seeds
// in TestChaos's numbering. LastAgentSchedule turns the optimization
// on and loses the agent's answer on every odd i, so the sweep is
// separate from TestChaos and leaves its 288 schedules as they are.
func lastAgentSeeds(simPerVariant, livePerVariant int) []int64 {
	var seeds []int64
	for v := protocol.VariantBaseline; v <= protocol.VariantPC; v++ {
		for i := int64(0); i < int64(simPerVariant); i++ {
			seeds = append(seeds, i<<4|int64(v))
		}
		for i := int64(0); i < int64(livePerVariant); i++ {
			seeds = append(seeds, i<<4|1<<3|int64(v))
		}
	}
	return seeds
}

// TestLastAgentSweep runs the §4 Last Agent path through the chaos
// schedules on both engines and every trace through the oracle: the
// delegation record must precede the delegation, a coordinator whose
// agent's answer was lost must stay in doubt and ask again rather than
// presume, and the agent, the coordinator and the other yes-voters
// must agree. -short runs the first 8 sim and 4 live seeds per
// variant; the full tier 32 and 16.
//
//	go test ./internal/check -run TestLastAgentSweep -args -seed=17
func TestLastAgentSweep(t *testing.T) {
	if *seedFlag != 0 {
		s := LastAgentSchedule(*seedFlag)
		t.Logf("replaying %s", s)
		runSchedule(t, s, true)
		return
	}
	sim, liveN := 32, 16
	if testing.Short() {
		sim, liveN = 8, 4
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, seed := range lastAgentSeeds(sim, liveN) {
		s := LastAgentSchedule(seed)
		if s.Engine == "sim" {
			runSchedule(t, s, true)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runSchedule(t, s, false)
		}()
	}
	wg.Wait()
}
