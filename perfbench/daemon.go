package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"bismarck/internal/engine"
	"bismarck/internal/server"
	"bismarck/internal/vector"
)

const (
	servedModel = "m_serve"
	// workDir holds the catalogs and traces a run writes, inside the
	// checkout the benchmark runs from.
	workDir = ".bench_build"
)

// ioCounters are the catalog's engine.IOHooks installed as pure
// counters: every hook passes the operation through unchanged.
type ioCounters struct {
	reads, writes, syncs atomic.Int64
}

func (c *ioCounters) hooks() engine.IOHooks {
	return engine.IOHooks{
		Read:  func(string, int) engine.IOFault { c.reads.Add(1); return engine.IONone },
		Write: func(string, int) engine.IOFault { c.writes.Add(1); return engine.IONone },
		Sync:  func(string) engine.IOFault { c.syncs.Add(1); return engine.IONone },
	}
}

type ioSnap struct{ reads, writes, syncs int64 }

func (c *ioCounters) snap() ioSnap {
	return ioSnap{c.reads.Load(), c.writes.Load(), c.syncs.Load()}
}

// connCounters count the calls and bytes on every connection a wrapped
// listener accepted.
type connCounters struct {
	reads, writes, bytes atomic.Int64
}

type connSnap struct{ reads, writes, bytes int64 }

func (c *connCounters) snap() connSnap {
	return connSnap{c.reads.Load(), c.writes.Load(), c.bytes.Load()}
}

type countingListener struct {
	net.Listener
	c *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.writes.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}

// host is one TCPServer on a loopback listener the benchmark owns.
type host struct {
	srv  *server.TCPServer
	mgr  *server.Manager
	addr string
	done chan error
}

func startHost(mgr *server.Manager, c *connCounters) (*host, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{srv: server.NewTCPServer(mgr), mgr: mgr, addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(countingListener{Listener: lis, c: c}) }()
	return h, nil
}

// stop closes the server, waits for its accept loop and handlers, and
// drains the manager's job workers.
func (h *host) stop() error {
	h.srv.Close()
	err := <-h.done
	h.mgr.Drain()
	return err
}

// daemon is the system under test: a server.Manager over a file catalog
// in its own directory, served on loopback, plus two shard executors
// for WITH executors= statements.
type daemon struct {
	dir       string
	cat       *engine.Catalog
	main      *host
	execs     []*host
	execAddrs string
	io        ioCounters
	conns     connCounters // server side of every daemon connection
	execConns connCounters // server side of every executor connection
}

func denseSchema(aux bool) engine.Schema {
	s := engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "vec", Type: engine.TDenseVec},
		{Name: "label", Type: engine.TFloat64},
	}
	if aux {
		s = append(s, engine.Column{Name: "aux", Type: engine.TDenseVec})
	}
	return s
}

var sparseSchema = engine.Schema{
	{Name: "id", Type: engine.TInt64},
	{Name: "vec", Type: engine.TSparseVec},
	{Name: "label", Type: engine.TFloat64},
}

// writeCatalog loads the generated rows into a fresh file catalog and
// closes it, as a data loader would before the daemon starts.
func writeCatalog(dir string, in *inputs) error {
	cat := engine.NewFileCatalog(dir, 0)
	aux := len(in.dense) > 0 && in.dense[0].aux != nil
	forest, err := cat.Create("forest", denseSchema(aux))
	if err != nil {
		return err
	}
	for i, r := range in.dense {
		tp := engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense(r.x)), engine.F64(r.y)}
		if aux {
			tp = append(tp, engine.DenseV(vector.Dense(r.aux)))
		}
		if err := forest.Insert(tp); err != nil {
			return err
		}
	}
	dblife, err := cat.Create("dblife", sparseSchema)
	if err != nil {
		return err
	}
	for i, r := range in.sparse {
		tp := engine.Tuple{engine.I64(int64(i)), engine.SparseV(vector.Sparse{Idx: r.idx, Val: r.val}), engine.F64(r.y)}
		if err := dblife.Insert(tp); err != nil {
			return err
		}
	}
	if err := cat.Save(); err != nil {
		return err
	}
	for _, t := range []*engine.Table{forest, dblife} {
		if err := t.Sync(); err != nil {
			return err
		}
	}
	return cat.Close()
}

// startDaemon loads the inputs, opens the catalog the way bismarckd does
// (recovery scrub, default buffer pool, default serving options, warm
// start) and starts the daemon and two executors on loopback. On error
// everything it started is already stopped.
func startDaemon(in *inputs) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "catalog-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	if err := writeCatalog(dir, in); err != nil {
		return fail(fmt.Errorf("loading catalog: %w", err))
	}
	if d.cat, err = engine.OpenFileCatalogIO(dir, 0, d.io.hooks()); err != nil {
		return fail(fmt.Errorf("opening catalog: %w", err))
	}
	mgr := server.NewManager(d.cat, server.Options{})
	mgr.Plane().Warm()
	if d.main, err = startHost(mgr, &d.conns); err != nil {
		return fail(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		h, err := startHost(server.NewManager(engine.NewCatalog(), server.Options{}), &d.execConns)
		if err != nil {
			return fail(err)
		}
		d.execs = append(d.execs, h)
		addrs = append(addrs, h.addr)
	}
	d.execAddrs = strings.Join(addrs, ",")
	return d, nil
}

// stop shuts everything down in bismarckd's order (wire, jobs, catalog)
// and removes the catalog directory.
func (d *daemon) stop() error {
	var errs []string
	for _, h := range append([]*host{d.main}, d.execs...) {
		if h == nil {
			continue
		}
		if err := h.stop(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if d.cat != nil {
		if err := d.cat.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("stopping daemon: %s", strings.Join(errs, "; "))
	}
	return nil
}

// model is a trained model read back from the catalog.
type model struct {
	w  []float64
	mu float64
}

// readModel reads a model's coefficient table and metadata side table
// straight from the catalog.
func (d *daemon) readModel(name string) (model, error) {
	meta, err := d.cat.Get(name + "__meta")
	if err != nil {
		return model{}, err
	}
	var m model
	dim := -1
	err = meta.Scan(func(tp engine.Tuple) error {
		var perr error
		switch tp[0].Str {
		case "dim":
			dim, perr = strconv.Atoi(tp[1].Str)
		case "p:mu":
			m.mu, perr = strconv.ParseFloat(tp[1].Str, 64)
		}
		return perr
	})
	if err != nil {
		return model{}, fmt.Errorf("reading %s metadata: %w", name, err)
	}
	if dim < 1 {
		return model{}, fmt.Errorf("model %s has no dimension in its metadata", name)
	}
	coef, err := d.cat.Get(name)
	if err != nil {
		return model{}, err
	}
	m.w = make([]float64, dim)
	err = coef.Scan(func(tp engine.Tuple) error {
		i := tp[0].Int
		if i < 0 || i >= int64(dim) {
			return fmt.Errorf("coefficient index %d outside dimension %d", i, dim)
		}
		m.w[i] = tp[1].Float
		return nil
	})
	if err != nil {
		return model{}, fmt.Errorf("reading %s coefficients: %w", name, err)
	}
	return m, nil
}

type idScore struct {
	id    int64
	score float64
}

// readPredictions reads a PREDICT INTO result table.
func (d *daemon) readPredictions(name string) ([]idScore, error) {
	t, err := d.cat.Get(name)
	if err != nil {
		return nil, err
	}
	var out []idScore
	err = t.Scan(func(tp engine.Tuple) error {
		out = append(out, idScore{tp[0].Int, tp[1].Float})
		return nil
	})
	return out, err
}
