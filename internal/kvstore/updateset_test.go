package kvstore

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/wal"
)

// TestUpdateSetBytesAsMarshal pins the hand-written update-set encoder
// to json.Marshal's bytes: the LRMUpdate record and the redo payload
// are read back with json.Unmarshal, and the bytes on disk must not
// change with the encoder.
func TestUpdateSetBytesAsMarshal(t *testing.T) {
	for _, ws := range [][]pendingWrite{
		nil,
		{},
		{{Key: "k", Value: "v"}},
		{{Key: "a", Value: ""}, {Key: "b", Delete: true}, {Key: "c", Value: "x"}},
		{{Key: "<&>\"\\\n\t\x01", Value: "\u2028\u2029\xff é 😀"}},
	} {
		checkUpdateSet(t, ws)
	}
}

func checkUpdateSet(t *testing.T, ws []pendingWrite) {
	t.Helper()
	want, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendUpdateSet(nil, ws); string(got) != string(want) {
		t.Fatalf("update set %+v:\n got  %s\n want %s", ws, got, want)
	}
}

// FuzzUpdateSet holds appendUpdateSet to json.Marshal over arbitrary
// keys, values (invalid UTF-8 included) and delete flags.
func FuzzUpdateSet(f *testing.F) {
	f.Add("k", "v", false, "k2", "", true)
	f.Add("<script>", "a&b", true, "\u2028", "\xff\xfe", false)
	f.Fuzz(func(t *testing.T, k1, v1 string, d1 bool, k2, v2 string, d2 bool) {
		checkUpdateSet(t, []pendingWrite{{Key: k1, Value: v1, Delete: d1}, {Key: k2, Value: v2, Delete: d2}})
	})
}

// TestPrepareAllocs bounds what one write transaction's Prepare
// allocates: the update set's encoding is one buffer, the log
// records' own bytes the rest.
func TestPrepareAllocs(t *testing.T) {
	s := New("db", wal.New(wal.NewMemStore()), clock.NewVirtual())
	const runs = 100
	for i := 0; i <= runs; i++ {
		for j := 0; j < 3; j++ {
			if err := s.Put(bg, tx(uint64(i)), fmt.Sprintf("k%d-%d", i, j), "value"); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.Prepare(tx(next)); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.1f allocs per Prepare", allocs)
	if allocs > 1 {
		t.Fatalf("Prepare allocates %.1f times, want at most 1", allocs)
	}
}
