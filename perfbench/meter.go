package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/fsim"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// The wrappers below measure each layer from outside the program: a
// serve.Backend wrapper times the router and each shard's store, an
// fsim.FS wrapper counts and times file-system work under each shard,
// and a net.Conn wrapper counts the bytes framed onto each connection.
// Spans are attributed to the request in flight of their class: the
// load generator runs at most one request per class at a time, reads
// (Query, ReadPoints, Kernel) in one class and mutations (WriteBatch,
// Write, DeleteRegion) in the other, so no request identifier has to
// cross the wire. File-system reads count towards the read in flight
// and file-system writes towards the mutation in flight.

// Request classes: each has at most one request in flight.
const (
	classRead = iota
	classWrite
	numClasses
)

// interval is a span on the process's monotonic clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// overlap returns how much of iv lies inside outer.
func (iv interval) overlap(outer interval) time.Duration {
	s, e := iv.start, iv.end
	if outer.start.After(s) {
		s = outer.start
	}
	if outer.end.Before(e) {
		e = outer.end
	}
	if e.Before(s) {
		return 0
	}
	return e.Sub(s)
}

// shardSpan is one shard backend call made for a request.
type shardSpan struct {
	interval
	shard  int
	read   *store.ReadReport
	push   *store.PushReport
	writes []*store.WriteReport
}

// fsOp is one file-system call under a shard.
type fsOp struct {
	interval
	shard  int
	write  bool // WriteFile, Append, Remove
	append bool
	bytes  int64
}

// reqTrace collects every span of one request.
type reqTrace struct {
	op string
	interval
	front     interval
	hasFront  bool
	shards    []shardSpan
	fs        []fsOp
	reqBytes  int64 // client → front server
	respBytes int64 // front server → client
	netBytes  int64 // router ↔ shards, both directions
}

// recorder holds the request in flight per class and the finished ones.
type recorder struct {
	mu   sync.Mutex
	cur  [numClasses]*reqTrace
	done []*reqTrace
}

// begin opens a request's trace; the load generator calls it right
// before sending.
func (r *recorder) begin(class int, op string) *reqTrace {
	t := &reqTrace{op: op}
	r.mu.Lock()
	r.cur[class] = t
	r.mu.Unlock()
	t.start = time.Now()
	return t
}

// end closes a request's trace.
func (r *recorder) end(class int, t *reqTrace) {
	t.end = time.Now()
	r.mu.Lock()
	r.cur[class] = nil
	r.done = append(r.done, t)
	r.mu.Unlock()
}

// add applies f to the request in flight of class, if any.
func (r *recorder) add(class int, f func(t *reqTrace)) {
	r.mu.Lock()
	if t := r.cur[class]; t != nil {
		f(t)
	}
	r.mu.Unlock()
}

// take returns the finished traces and forgets them.
func (r *recorder) take() []*reqTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.done
	r.done = nil
	return out
}

// timedBackend times calls into a serve.Backend. shard < 0 marks the
// router (the front server's backend); otherwise it is the shard index.
type timedBackend struct {
	serve.Backend
	rec   *recorder
	shard int
}

func (b *timedBackend) record(class int, iv interval, sp shardSpan) {
	b.rec.add(class, func(t *reqTrace) {
		if b.shard < 0 {
			t.front, t.hasFront = iv, true
			return
		}
		sp.interval, sp.shard = iv, b.shard
		t.shards = append(t.shards, sp)
	})
}

func (b *timedBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	t0 := time.Now()
	res, rep, err := b.Backend.Query(ctx, req)
	b.record(classRead, interval{t0, time.Now()}, shardSpan{read: rep})
	return res, rep, err
}

func (b *timedBackend) ReadPoints(ctx context.Context, probe *tensor.Coords) ([]float64, []bool, *store.ReadReport, error) {
	t0 := time.Now()
	vals, found, rep, err := b.Backend.ReadPoints(ctx, probe)
	b.record(classRead, interval{t0, time.Now()}, shardSpan{read: rep})
	return vals, found, rep, err
}

func (b *timedBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	t0 := time.Now()
	res, err := b.Backend.Kernel(ctx, req)
	sp := shardSpan{}
	if res != nil {
		sp.push = res.Report
	}
	b.record(classRead, interval{t0, time.Now()}, sp)
	return res, err
}

func (b *timedBackend) Write(ctx context.Context, coords *tensor.Coords, values []float64) (*store.WriteReport, error) {
	t0 := time.Now()
	rep, err := b.Backend.Write(ctx, coords, values)
	b.record(classWrite, interval{t0, time.Now()}, shardSpan{writes: []*store.WriteReport{rep}})
	return rep, err
}

func (b *timedBackend) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	t0 := time.Now()
	reps, err := b.Backend.WriteBatch(ctx, batches, workers)
	b.record(classWrite, interval{t0, time.Now()}, shardSpan{writes: reps})
	return reps, err
}

func (b *timedBackend) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	t0 := time.Now()
	rep, err := b.Backend.DeleteRegion(ctx, region)
	b.record(classWrite, interval{t0, time.Now()}, shardSpan{})
	return rep, err
}

// meterFS counts the bytes written to a shard's file system (write
// amplification needs them in every run) and, when rec is set, records
// each call as a span of the request in flight.
type meterFS struct {
	fsim.FS
	writeBytes atomic.Int64
	rec        *recorder
	shard      int
}

func (m *meterFS) note(t0 time.Time, write, app bool, n int64) {
	if m.rec == nil {
		return
	}
	op := fsOp{interval: interval{t0, time.Now()}, shard: m.shard, write: write, append: app, bytes: n}
	class := classRead
	if write {
		class = classWrite
	}
	m.rec.add(class, func(t *reqTrace) { t.fs = append(t.fs, op) })
}

func (m *meterFS) WriteFile(name string, data []byte) error {
	t0 := time.Now()
	err := m.FS.WriteFile(name, data)
	m.writeBytes.Add(int64(len(data)))
	m.note(t0, true, false, int64(len(data)))
	return err
}

func (m *meterFS) Append(name string, data []byte) error {
	t0 := time.Now()
	err := m.FS.Append(name, data)
	m.writeBytes.Add(int64(len(data)))
	m.note(t0, true, true, int64(len(data)))
	return err
}

func (m *meterFS) Remove(name string) error {
	t0 := time.Now()
	err := m.FS.Remove(name)
	m.note(t0, true, false, 0)
	return err
}

func (m *meterFS) ReadFile(name string) ([]byte, error) {
	if m.rec == nil {
		return m.FS.ReadFile(name)
	}
	t0 := time.Now()
	data, err := m.FS.ReadFile(name)
	m.note(t0, false, false, int64(len(data)))
	return data, err
}

func (m *meterFS) Open(name string) (fsim.File, error) {
	if m.rec == nil {
		return m.FS.Open(name)
	}
	t0 := time.Now()
	f, err := m.FS.Open(name)
	m.note(t0, false, false, 0)
	if err != nil {
		return nil, err
	}
	return &meterFile{File: f, fs: m}, nil
}

// meterFile times ranged reads on a traced shard.
type meterFile struct {
	fsim.File
	fs *meterFS
}

func (f *meterFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.note(t0, false, false, int64(n))
	return n, err
}

// meterConn counts the bytes read from and written to a connection.
type meterConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// meterListener hands out meterConns that all add to one pair of
// counters: the bytes a server received and sent.
type meterListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *meterListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meterConn{Conn: c, in: &l.in, out: &l.out}, nil
}
