package loadgen_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/loadgen"
)

// committerFunc adapts a function to the Committer interface; it
// ignores the ops.
type committerFunc func(ctx context.Context, tx string) (bool, bool, error)

func (f committerFunc) Commit(ctx context.Context, tx string, _ []api.Op) (bool, bool, error) {
	return f(ctx, tx)
}

// oneGet is a Config.Ops generator for committers that ignore the ops.
func oneGet(int) []api.Op { return []api.Op{{Key: "k", Op: api.OpGet}} }

func TestRunClassifiesOutcomes(t *testing.T) {
	var n atomic.Int64
	res := loadgen.Run(context.Background(), committerFunc(func(ctx context.Context, tx string) (bool, bool, error) {
		switch n.Add(1) % 4 {
		case 0:
			return false, false, errors.New("boom")
		case 1:
			return true, false, nil
		case 2:
			return false, true, nil
		default:
			return false, false, nil
		}
	}), loadgen.Config{Rate: 2000, Duration: 100 * time.Millisecond, Ops: oneGet})
	if res.Offered == 0 || res.Sent == 0 {
		t.Fatalf("no load offered: %+v", res)
	}
	if res.Committed == 0 || res.Aborted == 0 || res.Shed == 0 || res.Errors == 0 {
		t.Fatalf("outcome classes not all exercised: %+v", res)
	}
	if got := res.Committed + res.Aborted + res.Shed + res.Errors; got != res.Sent {
		t.Fatalf("classes sum to %d, sent %d", got, res.Sent)
	}
	if !strings.Contains(res.FirstErr, "boom") {
		t.Fatalf("FirstErr = %q, want the sampled error", res.FirstErr)
	}
	if res.CommitsPerSec() <= 0 {
		t.Fatalf("commits/sec = %v", res.CommitsPerSec())
	}
}

func TestRunShedsWhenWorkersSaturated(t *testing.T) {
	block := make(chan struct{})
	res := make(chan loadgen.Result, 1)
	go func() {
		res <- loadgen.Run(context.Background(), committerFunc(func(ctx context.Context, tx string) (bool, bool, error) {
			<-block
			return true, false, nil
		}), loadgen.Config{Rate: 1000, Duration: 100 * time.Millisecond, Workers: 2, Ops: oneGet})
	}()
	time.Sleep(150 * time.Millisecond)
	close(block)
	r := <-res
	if r.Dropped == 0 {
		t.Fatalf("open loop never dropped with 2 stuck workers: %+v", r)
	}
	if r.Sent != 2 || r.Committed != 2 {
		t.Fatalf("sent=%d committed=%d, want both 2", r.Sent, r.Committed)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	loadgen.Run(ctx, committerFunc(func(ctx context.Context, tx string) (bool, bool, error) {
		return true, false, nil
	}), loadgen.Config{Rate: 10, Duration: time.Hour, Ops: oneGet})
	if time.Since(start) > 5*time.Second {
		t.Fatal("canceled run did not return promptly")
	}
}

func TestResultReportShapes(t *testing.T) {
	res := loadgen.Run(context.Background(), committerFunc(func(ctx context.Context, tx string) (bool, bool, error) {
		time.Sleep(time.Millisecond)
		return true, false, nil
	}), loadgen.Config{Rate: 500, Duration: 80 * time.Millisecond, Ops: oneGet})

	sum := res.Summary()
	for _, want := range []string{"commits/sec", "p50", "ms"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	if res.Quantile(0.99) < res.Quantile(0.50) {
		t.Fatalf("p99 %v < p50 %v", res.Quantile(0.99), res.Quantile(0.50))
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"offered", "committed", "commits_per_sec", "p50_ms", "p99_ms"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("json missing %q: %s", key, raw)
		}
	}
}
