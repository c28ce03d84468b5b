package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/client"
	"repro/internal/api"
)

// workload is one traffic mix. Every workload runs on the same fleet
// and the same preloaded keyspace; only the generated ops differ.
type workload struct {
	name    string
	width   int     // distinct keys per transaction
	zipf    bool    // Zipf(s=1.3) key choice instead of uniform
	getFrac float64 // share of ops that are gets; the rest are puts
}

var workloads = []workload{
	{name: "fanout3", width: 3},
	{name: "local1", width: 1},
	{name: "hotmix3", width: 3, zipf: true, getFrac: 0.8},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numKeys = 100_000
	zipfS   = 1.3
	// preloadValue is the value the preload writes to every key.
	preloadValue = "p"
)

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// txn is one generated transaction: sorted distinct key indices and,
// per key, whether the op is a put (otherwise a get). Sorting the keys
// makes every transaction lock in one global (shard, key) order, so
// two clients can never deadlock and no transaction aborts.
type txn struct {
	seq  int
	keys []int
	puts []bool
}

// ops renders the transaction for client c. A put writes a value that
// names its writer, so any value read back identifies the transaction
// and op that wrote it.
func (t txn) ops(c int) []api.Op {
	out := make([]api.Op, len(t.keys))
	for i, k := range t.keys {
		if t.puts[i] {
			out[i] = client.Put(keyName(k), putValue(c, t.seq, i))
		} else {
			out[i] = client.Get(keyName(k))
		}
	}
	return out
}

func putValue(c, seq, op int) string { return fmt.Sprintf("c%d.%d.%d", c, seq, op) }

// writer is the parsed origin of a stored value; client -1 is the
// preload.
type writer struct{ client, seq, op int }

func parseValue(v string) (writer, error) {
	if v == preloadValue {
		return writer{client: -1}, nil
	}
	parts := strings.Split(strings.TrimPrefix(v, "c"), ".")
	if !strings.HasPrefix(v, "c") || len(parts) != 3 {
		return writer{}, fmt.Errorf("value %q was written by neither a client nor the preload", v)
	}
	var w writer
	var err error
	for i, dst := range []*int{&w.client, &w.seq, &w.op} {
		if *dst, err = strconv.Atoi(parts[i]); err != nil {
			return writer{}, fmt.Errorf("value %q: %v", v, err)
		}
	}
	return w, nil
}

// gen is one client's deterministic transaction stream: the same
// (workload, seed, client) always yields the same sequence.
type gen struct {
	w    workload
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

func newGen(w workload, seed int64, c int) *gen {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)*2 + uint64(c)))))
	g := &gen{w: w, rng: rng}
	if w.zipf {
		g.zipf = rand.NewZipf(rng, zipfS, 1, numKeys-1)
	}
	return g
}

// splitmix decorrelates neighbouring seeds, so seed s client 1 and
// seed s+1 client 0 do not share a stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (g *gen) key() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(numKeys)
}

func (g *gen) next() txn {
	t := txn{seq: g.seq, keys: make([]int, 0, g.w.width), puts: make([]bool, g.w.width)}
	g.seq++
	for len(t.keys) < g.w.width {
		k := g.key()
		dup := false
		for _, have := range t.keys {
			dup = dup || have == k
		}
		if !dup {
			t.keys = append(t.keys, k)
		}
	}
	sort.Ints(t.keys)
	for i := range t.puts {
		t.puts[i] = g.rng.Float64() >= g.w.getFrac
	}
	return t
}

// stream regenerates the first n transactions of a client's stream;
// the correctness checks replay it instead of storing every op.
func stream(w workload, seed int64, c, n int) []txn {
	g := newGen(w, seed, c)
	out := make([]txn, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
