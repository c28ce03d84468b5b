package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/wal"
)

// TestStageLocalPutAllocs guards the local staging path: staging one
// put on a free key allocates no more than the same put on a store
// that never waits for a lock. The StageTimeout bound arms a timer
// only when a lock actually waits, so a granted lock costs no timer
// and no context.
func TestStageLocalPutAllocs(t *testing.T) {
	s, err := New(Config{Name: "A", AuditInterval: -1, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := kvstore.New("ref", wal.New(wal.NewMemStore()), clock.NewWall())
	ctx := context.Background()
	ops := []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}
	id := core.ParseTxID("g:1")

	staged := testing.AllocsPerRun(200, func() {
		if _, err := s.stageLocal(ctx, "g:1", ops); err != nil {
			t.Fatal(err)
		}
		_ = s.store.Abort(id)
	})
	direct := testing.AllocsPerRun(200, func() {
		if err := ref.Put(ctx, id, "k", "v"); err != nil {
			t.Fatal(err)
		}
		_ = ref.Abort(id)
	})
	if staged > direct {
		t.Fatalf("staging a put on a free key allocates %.0f times, a non-waiting store's put %.0f", staged, direct)
	}
}

// TestStageLockWaitBoundPerSlice pins StageTimeout as the bound on one
// shard slice's lock waits, counted from the slice's first lock
// request, on both staging paths: the coordinator's own slice and the
// /v1/stage handler (409 conflict). In the second case of each, the
// slice's first op waits most of the bound before it is granted, and
// its second op then waits only for the time left; a bound per op
// would let the slice run to 450 ms + 600 ms.
func TestStageLockWaitBoundPerSlice(t *testing.T) {
	const bound = 600 * time.Millisecond
	s, err := New(Config{Name: "A", AuditInterval: -1, StageTimeout: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ops := []api.Op{{Key: "first", Op: api.OpPut, Value: "v"}, {Key: "second", Op: api.OpPut, Value: "v"}}

	local := func(tx string) error {
		_, err := s.stageLocal(ctx, tx, ops)
		if err == nil {
			return nil
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("local slice failed with %v, want a deadline error", err)
		}
		_ = s.store.Abort(core.ParseTxID(tx)) // as runV1 does for a failed slice
		return err
	}
	handler := func(tx string) error {
		body, err := json.Marshal(api.StageRequest{Tx: tx, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+s.HTTPAddr()+api.PathStage, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict || e.Code != "conflict" {
			t.Errorf("stage handler: status %d code %q, want 409 conflict", resp.StatusCode, e.Code)
		}
		return errors.New(e.Error)
	}

	for _, path := range []struct {
		name  string
		stage func(tx string) error
	}{{"local", local}, {"handler", handler}} {
		for _, firstHeld := range []time.Duration{0, 450 * time.Millisecond} {
			tx := fmt.Sprintf("%s-%d", path.name, firstHeld.Milliseconds())
			blockFirst, blockSecond := core.ParseTxID(tx+"-b1"), core.ParseTxID(tx+"-b2")
			if firstHeld > 0 {
				if err := s.store.Put(ctx, blockFirst, "first", "x"); err != nil {
					t.Fatal(err)
				}
				time.AfterFunc(firstHeld, func() { _ = s.store.Abort(blockFirst) })
			}
			if err := s.store.Put(ctx, blockSecond, "second", "x"); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err := path.stage(tx)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("%s: slice staged behind a held lock", tx)
			}
			if elapsed < bound || elapsed > bound+300*time.Millisecond {
				t.Errorf("%s: slice gave up after %v, want StageTimeout %v", tx, elapsed, bound)
			}
			_ = s.store.Abort(blockSecond)
			// The failed slice left no lock behind.
			if n := len(s.store.Locks().HeldKeys(core.ParseTxID(tx).String())); n != 0 {
				t.Errorf("%s: failed slice still holds %d locks", tx, n)
			}
		}
	}
}

// TestStageRemoteUnresponsivePeer pins the stage call's own bound: a
// peer that accepts the connection but never answers fails the stage
// after StageTimeout plus a second, with no deadline on the caller's
// context.
func TestStageRemoteUnresponsivePeer(t *testing.T) {
	const bound = 100 * time.Millisecond
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1, StageTimeout: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}()
	s.RegisterPeerHTTP("B", "http://"+ln.Addr().String())

	start := time.Now()
	_, err = s.stageRemote(context.Background(), "B", api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpPut, Value: "v"}}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stage to a silent peer succeeded")
	}
	if elapsed < bound+time.Second || elapsed > bound+time.Second+500*time.Millisecond {
		t.Fatalf("stage to a silent peer failed after %v (%v), want StageTimeout+1s = %v", elapsed, err, bound+time.Second)
	}
}

// roundTripFunc is a RoundTripper double.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestStageRequestBodyRewindable: the transport may re-send a stage
// request on a fresh connection, so the request must carry GetBody,
// and the body it returns must be the one sent.
func TestStageRequestBodyRewindable(t *testing.T) {
	s, err := New(Config{Name: "A", ShardMap: "hash:A,B", AuditInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterPeerHTTP("B", "http://b.example:1")
	calls := 0
	s.httpc.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		calls++
		sent, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.GetBody == nil {
			t.Fatal("stage request has no GetBody")
		}
		again, err := r.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		resent, _ := io.ReadAll(again)
		if len(sent) == 0 || string(sent) != string(resent) {
			t.Fatalf("GetBody returned %q after sending %q", resent, sent)
		}
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"tx":"t","reads":{"k":"v"}}`))}, nil
	})
	reads, err := s.stageRemote(context.Background(), "B", api.StageRequest{Tx: "t", Ops: []api.Op{{Key: "k", Op: api.OpGet}}})
	if err != nil || calls != 1 || reads["k"] != "v" {
		t.Fatalf("stage: reads %v err %v after %d calls", reads, err, calls)
	}
}
