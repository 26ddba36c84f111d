// Command perfbench is the repository's end-to-end benchmark. It builds
// the whole serving path in one process — two shard servers over
// chunked stores on OSFS directories, a router served by a front
// server, all on loopback TCP — loads it through a client, replays a
// seeded request stream for a fixed time, and checks every answer
// against an oracle built from the generator and the write log.
//
//	perfbench --workload hot-read|cold-scan|ingest-read --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs an untraced and then a traced phase of S/2
// each and reports per-layer metrics measured by wrappers around each
// layer, the self-agreement check, and the tracing overhead. The last
// line of standard output is the result object; the line before it is
// the full run record (every metric with unit and sample count, the
// data sizes and the environment). Run it through run.sh from the
// repository root, which builds it first.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	_ "sparseart/internal/core/all"
	"sparseart/internal/serve"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test sizes
	setups   int    // set-ups timed for setup_s
	root     string // directory for the stacks' files
	// wrapFront wraps the router before it is served (self-test only).
	wrapFront func(serve.Backend) serve.Backend
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run.
type record struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Env       map[string]any `json:"env"`
	Sizes     map[string]any `json:"sizes"`
	Metrics   []metric       `json:"metrics"`
	Agreement *agreement     `json:"self_agreement,omitempty"`
	Wrong     string         `json:"wrong,omitempty"` // the first wrong answer
}

// endToEnd names the metrics the result line carries with --trace 0,
// the ones ../BENCHMARK.json bounds. The record also carries the rest:
// probe latencies (hot-read only); the p99 latencies, kernel and write
// latencies and the ingest rate, whose run-to-run spread on a small
// shared machine exceeds any bound the benchmark may set; and the
// failed share (0 when healthy; the result line counts failures).
var endToEnd = []string{
	"ops_per_s", "region_p50_us", "alloc_kb_per_op",
	"peak_heap_mb", "space_amp", "write_amp", "setup_s",
}

func main() {
	o := options{setups: 5, root: ".bench_build/tmp"}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "hot-read, cold-scan or ingest-read")
	fl.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	emit(w, os.Stderr, rec, res)
	w.Flush()
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", rec.Wrong)
		os.Exit(1)
	}
}

// emit prints the record and then the result line to out, and a
// readable table to log.
func emit(out, log io.Writer, rec *record, res *result) {
	for _, m := range rec.Metrics {
		fmt.Fprintf(log, "%-32s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if rec.Agreement != nil {
		fmt.Fprintf(log, "self-agreement: %+v\n", *rec.Agreement)
	}
	b, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(out, string(b))
	b, _ = json.Marshal(res)
	fmt.Fprintln(out, string(b))
}

// clearKnobs drops the store's environment overrides, so every run
// measures the defaults whatever the caller's environment holds.
func clearKnobs() {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "SPARSEART_") {
			os.Unsetenv(name)
		}
	}
}

// run executes one invocation and returns its record and result line.
func run(ctx context.Context, o options) (*record, *result, error) {
	clearKnobs()
	w, err := newWorkload(o.workload, o.seed, o.seconds, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: environment()}
	res := &result{Metrics: map[string]resultValue{}}
	var phases []*phase
	if o.trace {
		plain, err := timedRun(ctx, w, o, d/2, 1, false)
		if err != nil {
			return nil, nil, err
		}
		traced, err := timedRun(ctx, w, o, d/2, 1, true)
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, plain.ph, traced.ph)
		overhead := metric{"trace.overhead_region_p50_us", "us",
			us(quantile(traced.ph.lat[opRegion], 0.5) - quantile(plain.ph.lat[opRegion], 0.5)),
			len(traced.ph.lat[opRegion])}
		rec.Metrics, rec.Agreement, rec.Sizes = append(traced.layers, overhead), &traced.agreement, traced.sizes
	} else {
		r, err := timedRun(ctx, w, o, d, o.setups, false)
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, r.ph)
		rec.Metrics, rec.Sizes = r.metrics, r.sizes
	}
	res.Correct = true
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.wrong != nil {
			res.Correct = false
			rec.Wrong = ph.wrong.Error()
		}
	}
	for _, m := range rec.Metrics {
		if o.trace || slices.Contains(endToEnd, m.Name) {
			res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
		}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no request was attempted")
	}
	return rec, res, nil
}

// runOut is one timed run: its phase, the end-to-end metrics and the
// data sizes, and when traced the per-layer metrics and self-check.
type runOut struct {
	ph        *phase
	metrics   []metric
	sizes     map[string]any
	layers    []metric
	agreement agreement
}

// timedRun sets the stack up `setups` times (timing each; the last one
// stays up), then drives one timed phase of length d on it.
func timedRun(ctx context.Context, w workload, o options, d time.Duration, setups int, traced bool) (*runOut, error) {
	cfg := w.config()
	cfg.wrapFront = o.wrapFront
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var setupS []float64
	sph := &phase{} // every set-up's ingest
	var lastIngest int64
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = newStack(cfg, o.root, traced); err != nil {
			return nil, err
		}
		b0 := sph.ingestBytes
		if err := w.setup(ctx, st, sph); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		lastIngest = sph.ingestBytes - b0
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	setupWrites := st.fsWriteBytes()
	var traces []*reqTrace
	if st.rec != nil {
		// Keep the set-up's ingest; drop its warm-up reads.
		for _, t := range st.rec.take() {
			if t.op == opNames[opWrite] {
				traces = append(traces, t)
			}
		}
	}
	ph := &phase{}
	runtime.GC() // start the phase without the set-up's garbage
	stop := watchMem()
	err := w.run(ctx, st, d, ph)
	ph.mem = stop()
	if err != nil && ph.wrong == nil {
		return nil, err
	}
	out := &runOut{ph: ph, sizes: w.sizes()}
	stored, err := st.storedBytes()
	if err != nil {
		return nil, err
	}
	out.sizes["stored_bytes"] = stored
	out.sizes["fragments"] = st.fragments()
	dims := cfg.shape.Dims()
	live := float64(w.liveNNZ()) * float64(userBytes(dims))
	// Ingest figures come from the timed phase when it writes, and from
	// the set-ups' bulk loads otherwise; write amplification then
	// compares the last set-up's file-system writes with its ingest.
	ing := ph
	writeAmp := ratio(float64(st.fsWriteBytes()-setupWrites), float64(ph.ingestBytes))
	if ph.ingestPts == 0 {
		ing = sph
		writeAmp = ratio(float64(setupWrites), float64(lastIngest))
	}
	done := ph.completed()
	sort.Float64s(setupS)
	lat := ph.latency
	out.metrics = []metric{
		{"ops_per_s", "ops/s", ph.rate(), done},
		{"region_p50_us", "us", lat(opRegion, 0.5), len(ph.lat[opRegion])},
		{"region_p99_us", "us", lat(opRegion, 0.99), len(ph.lat[opRegion])},
		{"probe_p50_us", "us", lat(opProbe, 0.5), len(ph.lat[opProbe])},
		{"probe_p99_us", "us", lat(opProbe, 0.99), len(ph.lat[opProbe])},
		{"kernel_p50_us", "us", lat(opKernel, 0.5), len(ph.lat[opKernel])},
		{"kernel_p99_us", "us", lat(opKernel, 0.99), len(ph.lat[opKernel])},
		{"ingest_pts_per_s", "points/s", ratio(float64(ing.ingestPts), ing.writerWall.Seconds()), int(ing.ingestPts)},
		{"write_p50_us", "us", us(quantile(ing.lat[opWrite], 0.5)), len(ing.lat[opWrite])},
		{"write_p99_us", "us", us(quantile(ing.lat[opWrite], 0.99)), len(ing.lat[opWrite])},
		{"alloc_kb_per_op", "KiB/op", ratio(float64(ph.mem.allocBytes)/1024, float64(done)), done},
		{"peak_heap_mb", "MiB", float64(ph.mem.peakHeap) / (1 << 20), done},
		{"space_amp", "ratio", ratio(float64(stored), live), w.liveNNZ()},
		{"write_amp", "ratio", writeAmp, int(ing.ingestPts)},
		{"failed_frac", "ratio", ratio(float64(ph.failed), float64(ph.attempted)), ph.attempted},
		{"setup_s", "s", setupS[len(setupS)/2], len(setupS)},
	}
	if traced {
		out.layers, out.agreement = layerMetrics(append(traces, st.rec.take()...), ing, ph, st.refusedCount())
	}
	return out, nil
}

// environment describes where the run happened.
func environment() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":       commit,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"fsim_backend": "OSFS",
		"flush":        "OSFS write-then-rename, no fsync",
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where present.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
