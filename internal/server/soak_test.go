package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// TestServerStateBoundedByInflightWork runs 20k mixed transactions
// through a three-daemon hash-sharded fleet — one to three keys each,
// puts and gets, under four variants, coordinated by every daemon in
// turn — and then checks that nothing per-transaction outlived its
// transaction: after Drain every daemon's protocol state table and
// lock table are empty, its kvstore log is bounded by its key count
// rather than by the commits it served, and its audit is exact.
func TestServerStateBoundedByInflightWork(t *testing.T) {
	const (
		spec    = "hash:A,B,C"
		keys    = 3000
		txs     = 20000
		workers = 12
	)
	names := []string{"A", "B", "C"}
	servers := make([]*Server, len(names))
	for i, name := range names {
		s, err := New(Config{Name: name, ShardMap: spec, AuditInterval: -1, MaxInflight: 4 * workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
	}
	for i, s := range servers {
		for j, peer := range servers {
			if i != j {
				s.RegisterPeer(names[j], peer.ProtoAddr())
				s.RegisterPeerHTTP(names[j], "http://"+peer.HTTPAddr())
			}
		}
	}

	variants := []string{"pa", "pa", "pn", "pc", "basic"}
	var next, committed, aborted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				n := next.Add(1)
				if n > txs {
					return
				}
				ops := make([]api.Op, 1+rng.Intn(3))
				for i := range ops {
					key := fmt.Sprintf("key%05d", rng.Intn(keys))
					if rng.Intn(3) == 0 {
						ops[i] = api.Op{Key: key, Op: api.OpGet}
					} else {
						ops[i] = api.Op{Key: key, Op: api.OpPut, Value: fmt.Sprintf("w%d-%d", w, n)}
					}
				}
				req := api.CommitRequest{Ops: ops, Variant: variants[rng.Intn(len(variants))]}
				resp, herr := servers[n%3].runV1(context.Background(), req)
				if herr != nil {
					errs <- fmt.Errorf("tx %d: %v", n, herr.e.Error)
					return
				}
				switch resp.Outcome {
				case live.Committed.String():
					committed.Add(1)
				case live.Aborted.String():
					aborted.Add(1)
				default:
					errs <- fmt.Errorf("tx %s: outcome %s (%s)", resp.Tx, resp.Outcome, resp.Abort)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if committed.Load() < txs/2 {
		t.Fatalf("only %d of %d transactions committed", committed.Load(), txs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot holds at most one pair per key, each commit's three
	// records carry more than one pair's bytes, and a small store
	// waits for 64 KiB of log (at ≥ 64 B per commit's records) before
	// compacting; the open transactions are gone after Drain.
	logBound := 3*keys + 3*(64<<10)/64 + 8
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range servers {
		for {
			states, locks := s.Participant().StateTableSize(), s.Store().Locks().TableSize()
			if states == 0 && locks == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d state entries and %d locked keys after drain", s.cfg.Name, states, locks)
			}
			time.Sleep(10 * time.Millisecond)
		}
		recs, err := s.Store().Log().Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > logBound {
			t.Errorf("%s: kvstore log holds %d records, bound %d", s.cfg.Name, len(recs), logBound)
		}
		s.AuditNow()
		rep, audited := s.AuditReport()
		if !rep.OK() || rep.Exact != rep.Checked || rep.Checked == 0 {
			t.Errorf("%s: audit %s (checked %d, exact %d, %d transactions)", s.cfg.Name, rep, rep.Checked, rep.Exact, audited)
		}
		// A shard whose slice only read voted read-only and left at its
		// vote: its ledger entry closed there, without an outcome, and
		// was audited with the rest.
		if n := s.Registry().CostLedgerSize(); n != 0 {
			t.Errorf("%s: cost ledger still holds %d entries after drain", s.cfg.Name, n)
		}
		readOnly := 0
		for _, v := range []protocol.Variant{protocol.VariantBaseline, protocol.VariantPA, protocol.VariantPN, protocol.VariantPC} {
			_, n := aggregate(s, v, metrics.RoleReadOnly, "unknown")
			readOnly += n
		}
		if readOnly == 0 {
			t.Errorf("%s: no read-only vote audited", s.cfg.Name)
		}
		t.Logf("%s: %d kvstore log records, %d decided, audit %d/%d exact over %d transactions",
			s.cfg.Name, len(recs), len(s.Participant().Decided()), rep.Exact, rep.Checked, audited)
	}
	t.Logf("%d committed, %d aborted", committed.Load(), aborted.Load())
}
