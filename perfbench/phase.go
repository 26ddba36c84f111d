package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// reqTimeout is every request's deadline; a request that misses it
// counts as failed.
const reqTimeout = 10 * time.Second

// opKind is a request type of the load generator.
type opKind int

const (
	opRegion opKind = iota // region Query, StrategyAuto
	opProbe                // point-probe Query
	opKernel               // sum_region Kernel
	opWrite                // WriteBatch
	opDelete               // DeleteRegion
	numOps
)

var opNames = [numOps]string{"region", "probe", "kernel", "write", "delete"}

// op is one generated request together with the oracle that checks it.
type op struct {
	kind    opKind
	region  tensor.Region
	probe   *tensor.Coords
	batches []store.Batch
	orc     *oracle
}

func (o *op) class() int {
	if o.kind == opWrite || o.kind == opDelete {
		return classWrite
	}
	return classRead
}

// sample is one request that completed with a correct answer.
type sample struct {
	kind opKind
	lat  time.Duration
	at   time.Time // completion
}

// phase accumulates one timed phase's outcomes.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	lat       [numOps][]time.Duration
	samples   []sample
	attempted int
	failed    int
	wrong     error // first wrong answer
	lags      []time.Duration
	elapsed   time.Duration
	// Ingest accounting: points acknowledged, the user bytes they
	// carry, and the writer's wall time.
	ingestPts   int64
	ingestBytes int64
	writerWall  time.Duration
	mem         memUse
}

// record books one finished request.
func (ph *phase) record(kind opKind, lat time.Duration, reqErr, wrong error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	switch {
	case reqErr != nil:
		ph.failed++
	case wrong != nil:
		ph.failed++
		if ph.wrong == nil {
			ph.wrong = wrong
		}
	default:
		ph.lat[kind] = append(ph.lat[kind], lat)
		ph.samples = append(ph.samples, sample{kind, lat, time.Now()})
	}
}

// windows is how many equal time slices the end-to-end figures of a
// timed phase are taken over. Each figure is the median of its value
// in each slice, so a burst of interference from other processes on
// the machine moves at most a minority of the slices.
const windows = 5

// windowed returns the median over the phase's time slices of f applied
// to each slice's samples and the slice's length; slices where f has no
// value are skipped.
func (ph *phase) windowed(f func(s []sample, d time.Duration) (float64, bool)) float64 {
	width := ph.elapsed / windows
	if width <= 0 {
		return 0
	}
	slices := make([][]sample, windows)
	for _, s := range ph.samples {
		i := min(int(s.at.Sub(ph.start)/width), windows-1)
		slices[max(i, 0)] = append(slices[max(i, 0)], s)
	}
	var vals []float64
	for _, sl := range slices {
		if v, ok := f(sl, width); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n := len(vals); n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[len(vals)/2]
}

// rate is the median over slices of requests completed per second.
func (ph *phase) rate() float64 {
	return ph.windowed(func(s []sample, d time.Duration) (float64, bool) {
		return float64(len(s)) / d.Seconds(), true
	})
}

// latency is the median over slices of the q-quantile of kind's
// latency, in microseconds.
func (ph *phase) latency(kind opKind, q float64) float64 {
	return ph.windowed(func(s []sample, _ time.Duration) (float64, bool) {
		var ds []time.Duration
		for _, x := range s {
			if x.kind == kind {
				ds = append(ds, x.lat)
			}
		}
		return us(quantile(ds, q)), len(ds) > 0
	})
}

// completed counts requests that finished with a correct answer.
func (ph *phase) completed() int {
	n := 0
	for _, l := range ph.lat {
		n += len(l)
	}
	return n
}

// exec sends o on client ci, times it from due (the intended send time
// for an open loop, the actual one for a closed loop), and checks the
// answer against o's oracle. With tracing on, the request's spans are
// collected under a trace opened here.
func (st *stack) exec(ctx context.Context, ci int, o *op, due time.Time) (lat time.Duration, reqErr, wrong error) {
	c := st.clients[ci]
	var tr *reqTrace
	var in0, out0, net0 int64
	if st.rec != nil {
		in0, out0, net0 = st.clientIn[ci].Load(), st.clientOut[ci].Load(), st.shardNetBytes()
		tr = st.rec.begin(o.class(), opNames[o.kind])
	}
	ctx, cancel := context.WithTimeout(ctx, reqTimeout)
	defer cancel()
	check := func() error { return nil }
	switch o.kind {
	case opRegion:
		var res *store.Result
		res, _, reqErr = c.Query(ctx, store.QueryRequest{Region: &o.region, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
		check = func() error { return o.orc.checkRegion(o.region, res) }
	case opProbe:
		var res *store.Result
		res, _, reqErr = c.Query(ctx, store.QueryRequest{Probe: o.probe, AsOf: store.AsOfLatest})
		check = func() error { return o.orc.checkProbe(o.probe, res) }
	case opKernel:
		var res *store.KernelResult
		res, reqErr = c.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &o.region})
		check = func() error { return o.orc.checkSum(o.region, res) }
	case opWrite:
		_, reqErr = c.WriteBatch(ctx, o.batches, 0)
	case opDelete:
		_, reqErr = c.DeleteRegion(ctx, o.region)
	}
	lat = time.Since(due)
	if tr != nil {
		st.rec.end(o.class(), tr)
		tr.reqBytes = st.clientOut[ci].Load() - out0
		tr.respBytes = st.clientIn[ci].Load() - in0
		tr.netBytes = st.shardNetBytes() - net0
	}
	if reqErr != nil {
		return lat, fmt.Errorf("%s: %w", opNames[o.kind], reqErr), nil
	}
	return lat, nil, check()
}

// runClosed replays ops (cycling) on client 0, one request at a time,
// for d.
func runClosed(ctx context.Context, st *stack, ops []op, d time.Duration, ph *phase) {
	start := time.Now()
	ph.start = start
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		o := &ops[i%len(ops)]
		lat, reqErr, wrong := st.exec(ctx, 0, o, time.Now())
		ph.record(o.kind, lat, reqErr, wrong)
		if ph.wrong != nil {
			break
		}
	}
	ph.elapsed = time.Since(start)
}

// memUse is the Go runtime's view of one timed phase.
type memUse struct {
	allocBytes uint64
	numGC      uint32
	pause      time.Duration
	peakHeap   uint64
}

// heapSamples add up to the heap bytes in use: live and not yet swept objects
// plus free space in in-use spans.
var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func heapInUse() uint64 {
	s := make([]metrics.Sample, len(heapSamples))
	copy(s, heapSamples)
	metrics.Read(s)
	var n uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			n += x.Value.Uint64()
		}
	}
	return n
}

// watchMem samples the heap every few milliseconds until the returned
// stop function is called; stop waits for the sampler and returns the
// phase's runtime figures.
func watchMem() (stop func() memUse) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var max uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapInUse(); h > max {
				max = h
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() memUse {
		close(done)
		p := <-peak
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		return memUse{
			allocBytes: m1.TotalAlloc - m0.TotalAlloc,
			numGC:      m1.NumGC - m0.NumGC,
			pause:      time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
			peakHeap:   p,
		}
	}
}

// quantile returns the q-quantile (nearest rank) of ds, sorting ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(q*float64(len(ds))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ds) {
		k = len(ds) - 1
	}
	return ds[k]
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
