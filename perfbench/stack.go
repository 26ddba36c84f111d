package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// stackConfig describes one served store.
type stackConfig struct {
	kind        core.Kind
	shape, tile tensor.Shape
	shards      int
	// cacheBudget is each shard's reader-cache budget in bytes; 0 keeps
	// the store's default.
	cacheBudget int64
	// clients is how many client connections the load generator opens.
	clients int
	// wrapFront, when set, wraps the router before the front server
	// serves it; the self-test uses it to corrupt answers.
	wrapFront func(serve.Backend) serve.Backend
}

// shard is one shard server: a chunked store on its own directory,
// served on loopback TCP.
type shard struct {
	dir   string
	fs    *meterFS
	store *store.Chunked
	srv   *serve.Server
	ln    *meterListener
	done  chan error
}

// stack is the whole serving path in one process: shard servers, a
// router over them, a front server serving the router, and clients
// connected to the front server — each piece configured the way
// `sparsestore serve` and `sparserouter` run by default (a live
// metrics registry, trace sampling off, the default in-flight window).
type stack struct {
	cfg       stackConfig
	root      string
	shards    []*shard
	router    *serve.Router
	routerReg *obs.Registry
	prevObs   *obs.Registry
	front     *serve.Server
	frontDone chan error
	clients   []*serve.Client
	clientIn  []*atomic.Int64 // bytes each client received
	clientOut []*atomic.Int64 // bytes each client sent
	rec       *recorder       // nil unless traced
}

// newStack starts a stack under a fresh directory below root. With
// traced set, every layer is wrapped and spans go to the stack's
// recorder.
func newStack(cfg stackConfig, root string, traced bool) (st *stack, err error) {
	dir, err := os.MkdirTemp(root, "stack-")
	if err != nil {
		return nil, err
	}
	st = &stack{cfg: cfg, root: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if traced {
		st.rec = &recorder{}
	}
	var addrs []string
	for i := 0; i < cfg.shards; i++ {
		sh, err := st.startShard(i)
		if err != nil {
			return st, fmt.Errorf("shard %d: %w", i, err)
		}
		addrs = append(addrs, sh.ln.Addr().String())
	}
	// A sparserouter process enables the process-wide registry, so its
	// shard clients record their client.request spans there.
	st.routerReg = obs.New()
	st.routerReg.SetProc("router")
	st.prevObs = obs.SetGlobal(st.routerReg)
	st.router, err = serve.NewRouter(addrs, st.routerReg)
	if err != nil {
		return st, err
	}
	var backend serve.Backend = st.router
	if st.rec != nil {
		backend = &timedBackend{Backend: backend, rec: st.rec, shard: -1}
	}
	if cfg.wrapFront != nil {
		backend = cfg.wrapFront(backend)
	}
	st.front = serve.NewServer(backend, serve.Config{Obs: st.routerReg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.frontDone = make(chan error, 1)
	go func() { st.frontDone <- st.front.Serve(ln) }()
	for i := 0; i < cfg.clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return st, err
		}
		in, out := new(atomic.Int64), new(atomic.Int64)
		st.clients = append(st.clients, serve.NewClient(&meterConn{Conn: conn, in: in, out: out}))
		st.clientIn = append(st.clientIn, in)
		st.clientOut = append(st.clientOut, out)
	}
	return st, nil
}

// startShard opens shard i's store and starts serving it.
func (st *stack) startShard(i int) (*shard, error) {
	sh := &shard{dir: filepath.Join(st.root, fmt.Sprintf("shard%d", i))}
	st.shards = append(st.shards, sh)
	osfs, err := fsim.NewOSFS(sh.dir)
	if err != nil {
		return nil, err
	}
	sh.fs = &meterFS{FS: osfs, rec: st.rec, shard: i}
	reg := obs.New()
	reg.SetProc("shard")
	opts := []store.Option{store.WithObs(reg)}
	if st.cfg.cacheBudget > 0 {
		opts = append(opts, store.WithReaderCache(st.cfg.cacheBudget))
	}
	sh.store, err = store.NewChunked(sh.fs, "tensor", st.cfg.kind, st.cfg.shape, st.cfg.tile, opts...)
	if err != nil {
		return nil, err
	}
	backend := serve.ChunkedBackend(sh.store)
	if st.rec != nil {
		backend = &timedBackend{Backend: backend, rec: st.rec, shard: i}
	}
	sh.srv = serve.NewServer(backend, serve.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh.ln = &meterListener{Listener: ln}
	sh.done = make(chan error, 1)
	go func() { sh.done <- sh.srv.Serve(sh.ln) }()
	return sh, nil
}

// close stops every server, waits for their goroutines, and removes
// the stack's files.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		c.Close()
	}
	if st.front != nil {
		st.front.Close()
		errs = append(errs, <-st.frontDone)
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.routerReg != nil {
		obs.SetGlobal(st.prevObs)
	}
	for _, sh := range st.shards {
		if sh.srv != nil {
			sh.srv.Close()
			errs = append(errs, <-sh.done)
		}
		if sh.store != nil {
			errs = append(errs, sh.store.Close())
		}
	}
	errs = append(errs, os.RemoveAll(st.root))
	return errors.Join(errs...)
}

// storedBytes sums the sizes of every file under the shards'
// directories.
func (st *stack) storedBytes() (int64, error) {
	var total int64
	for _, sh := range st.shards {
		err := filepath.WalkDir(sh.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// fsWriteBytes sums the bytes written to every shard's file system.
func (st *stack) fsWriteBytes() int64 {
	var n int64
	for _, sh := range st.shards {
		n += sh.fs.writeBytes.Load()
	}
	return n
}

// shardNetBytes sums the bytes the shard servers received and sent.
func (st *stack) shardNetBytes() int64 {
	var n int64
	for _, sh := range st.shards {
		n += sh.ln.in.Load() + sh.ln.out.Load()
	}
	return n
}

// fragments counts the fragments across shards.
func (st *stack) fragments() int {
	n := 0
	for _, sh := range st.shards {
		n += sh.store.Fragments()
	}
	return n
}

// refusedCount sums the requests every server refused with
// wire.ErrOverloaded.
func (st *stack) refusedCount() int64 {
	regs := []*obs.Registry{st.routerReg}
	for _, sh := range st.shards {
		regs = append(regs, sh.store.Obs())
	}
	var n int64
	for _, reg := range regs {
		for name, v := range reg.Snapshot().Counters {
			if family, _ := obs.ParseName(name); family == "serve.rejected" {
				n += v
			}
		}
	}
	return n
}
