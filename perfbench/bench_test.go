package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"sparseart/internal/serve"
	"sparseart/internal/store"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, wrap func(serve.Backend) serve.Backend) (*record, *result) {
	t.Helper()
	rec, res, err := run(context.Background(), options{
		workload: workload, seed: 7, seconds: 1, trace: trace, tiny: true,
		setups: 2, root: t.TempDir(), wrapFront: wrap,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rec, res
}

// TestTinyRunsEmitEveryMetric runs every workload of BENCHMARK.json at
// tiny sizes, untraced and traced, and checks that the result line
// carries exactly the declared metrics with their declared units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rec, res := tinyRun(t, w.Name, traced, nil)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %s", w.Name, traced, res.Correct, res.Attempted, res.Failed, rec.Wrong)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced && (rec.Agreement == nil || !rec.Agreement.LedgerOK) {
				t.Errorf("%s: layer self times do not add up to wall time: %+v", w.Name, rec.Agreement)
			}
		}
	}
}

// corrupt adds one to the first value of the first non-empty region
// answer after `after` region answers and passes everything else
// through.
type corrupt struct {
	serve.Backend
	mu          sync.Mutex
	after, seen int
	done        bool
}

func (c *corrupt) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	res, rep, err := c.Backend.Query(ctx, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && req.Region != nil && !c.done && len(res.Values) > 0 {
		if c.seen++; c.seen > c.after {
			res.Values[0]++
			c.done = true
		}
	}
	return res, rep, err
}

// TestOracleCatchesCorruption checks that one wrong value in one answer
// fails the run: during the set-up's warm-up (at most 50 requests at
// tiny sizes) as an error, during the timed phase as an incorrect
// result.
func TestOracleCatchesCorruption(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		for _, after := range []int{0, 100} {
			var c *corrupt
			rec, res, err := run(context.Background(), options{
				workload: w.Name, seed: 7, seconds: 2, tiny: true, setups: 1, root: t.TempDir(),
				wrapFront: func(b serve.Backend) serve.Backend {
					c = &corrupt{Backend: b, after: after}
					return c
				},
			})
			if c == nil || !c.done {
				t.Fatalf("%s after=%d: no region answer was corrupted", w.Name, after)
			}
			switch {
			case err != nil:
				if after > 0 || !strings.Contains(err.Error(), "value") {
					t.Errorf("%s after=%d: %v", w.Name, after, err)
				}
			case res.Correct || !strings.Contains(rec.Wrong, "value"):
				t.Errorf("%s after=%d: corrupted answer passed: correct=%v wrong=%q", w.Name, after, res.Correct, rec.Wrong)
			}
		}
	}
}
