package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// One seed must yield the same op lists, another seed different ones,
// so a claim can be re-checked on a held-out seed.
func TestStreamSeeded(t *testing.T) {
	const n = 300
	render := func(txs []txn, c int) [][]string {
		var out [][]string
		for _, t := range txs {
			var ops []string
			for _, op := range t.ops(c) {
				ops = append(ops, string(op.Op)+" "+op.Key+"="+op.Value)
			}
			out = append(out, ops)
		}
		return out
	}
	for _, w := range workloads {
		a := render(stream(w, 7, 0, n), 0)
		if b := render(stream(w, 7, 0, n), 0); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different op lists", w.name)
		}
		if c := render(stream(w, 8, 0, n), 0); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same op list", w.name)
		}
		if c := render(stream(w, 7, 1, n), 1); reflect.DeepEqual(a, c) {
			t.Errorf("%s: clients 0 and 1 share an op list", w.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	const n = 2000
	for _, w := range workloads {
		gets, ops := 0, 0
		for _, tx := range stream(w, 3, 0, n) {
			if len(tx.keys) != w.width || !sort.IntsAreSorted(tx.keys) {
				t.Fatalf("%s tx %d: keys %v, want %d sorted", w.name, tx.seq, tx.keys, w.width)
			}
			for i, k := range tx.keys {
				if k < 0 || k >= numKeys || (i > 0 && tx.keys[i-1] == k) {
					t.Fatalf("%s tx %d: bad or repeated key in %v", w.name, tx.seq, tx.keys)
				}
				ops++
				if !tx.puts[i] {
					gets++
				}
			}
		}
		if got := float64(gets) / float64(ops); got < w.getFrac-0.03 || got > w.getFrac+0.03 {
			t.Errorf("%s: get share %.3f, want %.2f", w.name, got, w.getFrac)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	w, err := parseValue(putValue(1, 42, 2))
	if err != nil || w != (writer{client: 1, seq: 42, op: 2}) {
		t.Fatalf("parseValue(putValue(1, 42, 2)) = %+v, %v", w, err)
	}
	if w, err := parseValue(preloadValue); err != nil || w.client != -1 {
		t.Fatalf("preload value parsed as %+v, %v", w, err)
	}
	for _, bad := range []string{"", "x1.2.3", "c1.2", "c1.x.3"} {
		if _, err := parseValue(bad); err == nil {
			t.Errorf("parseValue(%q) accepted", bad)
		}
	}
}

func TestCovered(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	kids := []span{
		{start: at(2), end: at(4)},
		{start: at(3), end: at(5)},  // overlaps the first
		{start: at(8), end: at(12)}, // clipped to the parent
	}
	if got := covered(kids, at(0), at(10)); got != 5*time.Millisecond {
		t.Fatalf("covered = %v, want 5ms", got)
	}
}
