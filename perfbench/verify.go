package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/client"
)

// verify is the correctness gate: no transport errors; every value a
// get returned and every touched key's final value was written by a
// committed transaction or the preload (and the final value by the
// writer's last committed write of that key); every daemon drains to
// an empty cost ledger with an exact audit; nothing was shed. It
// returns the fleet's exact/checked audit fraction and the shed count.
func (r *rig) verify(ctx context.Context) (float64, float64, error) {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	streams := make([][]txn, len(r.clients))
	for c, cr := range r.clients {
		streams[c] = stream(r.cfg.w, r.cfg.seed, c, len(cr.outcome))
		if t := cr.tally(0); t.errors > 0 {
			fail("client %d: %d transport errors (last: %v)", c, t.errors, cr.lastErr)
		}
		for i, b := range cr.bad {
			if i == 3 {
				fail("client %d: %d more bad reads", c, len(cr.bad)-i)
				break
			}
			fail("%s", b)
		}
	}
	// committedPut: op w.op of client w.client's transaction w.seq is
	// a put on key k and that transaction committed.
	committedPut := func(k int, w writer) bool {
		if w.client < 0 || w.client >= len(streams) || w.seq < 0 || w.seq >= len(streams[w.client]) {
			return false
		}
		t := streams[w.client][w.seq]
		return r.clients[w.client].outcome[w.seq] == outCommitted &&
			w.op >= 0 && w.op < len(t.keys) && t.keys[w.op] == k && t.puts[w.op]
	}
	// last[k][c] is client c's last committed seq writing k (-1: none).
	last := map[int][]int{}
	for c, txs := range streams {
		for _, t := range txs {
			for i, k := range t.keys {
				if !t.puts[i] {
					continue
				}
				if last[k] == nil {
					last[k] = make([]int, len(streams))
					for i := range last[k] {
						last[k][i] = -1
					}
				}
				if r.clients[c].outcome[t.seq] == outCommitted {
					last[k][c] = t.seq
				}
			}
		}
	}
	touched := make([]int, 0, len(last))
	for k := range last {
		touched = append(touched, k)
	}
	final, err := r.readBack(ctx, touched)
	if err != nil {
		return 0, 0, err
	}
	for k, seqs := range last {
		v, ok := final[keyName(k)]
		if !ok {
			fail("key %s: no value after the run", keyName(k))
			continue
		}
		w, err := parseValue(v)
		switch {
		case err != nil:
			fail("key %s: %v", keyName(k), err)
		case w.client < 0:
			if slices.Max(seqs) >= 0 {
				fail("key %s: preload value survived committed writes", keyName(k))
			}
		case !committedPut(k, w) || seqs[w.client] != w.seq:
			fail("key %s: final value %q is not the last committed write of its writer", keyName(k), v)
		}
	}
	for _, cr := range r.clients {
		for _, o := range cr.reads {
			w := writer{client: int(o.client), seq: int(o.seq), op: int(o.op)}
			if w.client >= 0 && !committedPut(int(o.key), w) {
				fail("client %d read %s = %q, not written by a committed transaction",
					cr.id, keyName(int(o.key)), putValue(w.client, w.seq, w.op))
			}
		}
	}

	dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := r.f.drain(dctx); err != nil {
		fail("drain: %v", err)
	}
	var checked, exact int
	var shed float64
	for i, s := range r.f.servers {
		rep, _ := s.AuditReport()
		checked += rep.Checked
		exact += rep.Exact
		if !rep.OK() || rep.Exact != rep.Checked {
			fail("%s audit: %s", shardNames[i], rep)
		}
		m, err := scrape(ctx, r.hc, r.f.url(i))
		if err != nil {
			return 0, 0, fmt.Errorf("scrape %s: %w", shardNames[i], err)
		}
		shed += m["twopc_admission_shed_total"]
	}
	if shed != 0 {
		fail("admission shed %.0f transactions", shed)
	}
	if len(problems) > 0 {
		if len(problems) > 10 {
			problems = append(problems[:10], fmt.Sprintf("... %d more", len(problems)-10))
		}
		return 0, 0, errors.New("correctness gate failed:\n  " + strings.Join(problems, "\n  "))
	}
	return float64(exact) / float64(max(checked, 1)), shed, nil
}

// readBack reads the given keys through /v1/commit gets, in
// single-shard batches, and returns the values found.
func (r *rig) readBack(ctx context.Context, keys []int) (map[string]string, error) {
	out := make(map[string]string, len(keys))
	for _, ops := range ownerBatches(r.f.smap, keys, client.Get) {
		resp, err := r.clients[0].c.Commit(ctx, "", ops)
		if err != nil {
			return nil, fmt.Errorf("read back: %w", err)
		}
		if resp.Outcome != "committed" {
			return nil, fmt.Errorf("read back: outcome %s (%s)", resp.Outcome, resp.Abort)
		}
		for k, v := range resp.Reads {
			out[k] = v
		}
	}
	return out, nil
}
