package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/server"
)

// runner is one run's state: the daemon, its inputs, and what the
// phases measured.
type runner struct {
	cfg   config
	sz    sizes
	in    *inputs
	d     *daemon
	ctl   *server.Client // statement connection
	tr    *tracer        // nil on untraced runs
	led   ledger
	e2e   map[string]metric
	layer map[string]metric

	// samples holds every timed sample of the run by metric; each
	// phase adds to it once per cycle.
	samples map[string][]float64
	rounds  int         // statement rounds run, the first one warm-up
	gens    [][]float64 // served model generations in commit order
	expect  []float64   // sigmoid(w·x) of every serving point under the latest
	stmtIO  map[string]ioSnap
	stmtN   map[string]int
	binConn connSnap // daemon connection counters over the binary point phase
	binFrm  int64
	lates   []float64 // how late the open-loop sender sent each mixed frame, us
	hits    uint64    // served model cache hits during the mixed phases
	fills   uint64    // and its cache fills
	// p99Short reports a cycle that had too few latencies for a p99.
	p99Short error
}

// latencies adds one cycle's latency samples of a kind, and the cycle's
// p95 and p99 taken from at least minP99Samples of them (smoke runs
// excepted). The run reports medians of the cycles' tails, so one stalled
// cycle cannot set the tail of the whole run.
func (r *runner) latencies(kind string, xs []float64) {
	if len(xs) < minP99Samples && !r.cfg.smoke && r.p99Short == nil {
		r.p99Short = fmt.Errorf("a p99 needs %d samples, a %s cycle took %d", minP99Samples, kind, len(xs))
	}
	r.add(kind+"_us", xs...)
	if len(xs) > 0 {
		r.add(kind+"_p95_us", quantile(xs, 0.95))
		r.add(kind+"_p99_us", quantile(xs, 0.99))
	}
}

func (r *runner) addE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *runner) addLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// setup generates the inputs, starts the daemon and trains the served
// model: everything setup_s times. On error nothing is left running.
func setup(cfg config, sz sizes) (*runner, error) {
	r := &runner{cfg: cfg, sz: sz, e2e: map[string]metric{}, layer: map[string]metric{},
		stmtIO: map[string]ioSnap{}, stmtN: map[string]int{}, samples: map[string][]float64{}}
	if cfg.trace {
		r.tr = &tracer{t0: time.Now()}
	}
	r.in = generate(sz, cfg.seed)
	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *runner) start() error {
	var err error
	if r.d, err = startDaemon(r.in); err != nil {
		return err
	}
	if r.ctl, err = server.Dial(r.d.main.addr); err != nil {
		return err
	}
	body, err := r.ctl.Exec(r.retrainStmt(0))
	if err != nil {
		return fmt.Errorf("set-up TRAIN: %w", err)
	}
	m, err := r.d.readModel(servedModel)
	if err != nil {
		return err
	}
	if err := checkDenseTrain(r.in.dense, m, body); err != nil {
		return fmt.Errorf("set-up TRAIN: %w", err)
	}
	r.served(m.w)
	return nil
}

// served records a new generation of the served model and the scores
// the serving phase expects from it.
func (r *runner) served(w []float64) {
	r.gens = append(r.gens, w)
	r.expect = make([]float64, len(r.in.points))
	for i, p := range r.in.points {
		r.expect[i] = sigmoid(dot(w, p))
	}
}

func (r *runner) add(name string, xs ...float64) { r.samples[name] = append(r.samples[name], xs...) }

// finish turns the samples into the end-to-end metrics: medians of the
// samples, and for a tail the median over cycles of each cycle's tail.
func (r *runner) finish() error {
	s := r.samples
	for _, m := range []struct{ metric, unit string }{
		{"train_dense_ms", "ms"}, {"train_sparse_ms", "ms"}, {"train_sharded_ms", "ms"},
		{"train_dist_ms", "ms"}, {"predict_into_ms", "ms"}, {"train_alloc_mb", "MB"},
		{"point_bin_preds_per_s", "preds/s"}, {"batch8_bin_preds_per_s", "preds/s"},
		{"point_text_preds_per_s", "preds/s"}, {"mixed_retrain_ms", "ms"},
	} {
		printSamples(m.metric, s[m.metric])
		r.addE2E(m.metric, median(s[m.metric]), m.unit)
	}
	if r.p99Short != nil {
		return r.p99Short
	}
	for _, lat := range []string{"point_rtt", "mixed_point"} {
		printSamples(lat+"_us", s[lat+"_us"])
		printSamples(lat+"_p95_us", s[lat+"_p95_us"])
		printSamples(lat+"_p99_us", s[lat+"_p99_us"])
		r.addE2E(lat+"_p50_us", median(s[lat+"_us"]), "us")
	}
	// The tails are printed above but are no metrics: over ten runs the
	// round trip's p99 spread by a quarter of its median, the mixed p95
	// by 0.15-0.41 and its p99 by 0.2-0.5, beyond any bound they could
	// have, as they magnify the machine's own drift in speed.
	printSamples("mixed_send_late_us", r.lates)
	fmt.Printf("run statement rounds=%d (+1 warm-up) served generations=%d\n", r.rounds-1, len(r.gens))
	for name, m := range r.e2e {
		if math.IsNaN(m.Value) {
			return fmt.Errorf("no samples for %s", name)
		}
	}
	return nil
}

// close closes the statement connection and stops the daemon.
func (r *runner) close() error {
	if r.ctl != nil {
		r.ctl.Close()
	}
	if r.d == nil {
		return nil
	}
	return r.d.stop()
}

// textWindow is the pipeline depth of text frames. They are admitted
// as they are read and scored concurrently; the default admission budget
// per model is GOMAXPROCS slots plus twice that queued, beyond which the
// daemon sheds busy by design. The window stays well inside it.
func (r *runner) textWindow() int { return min(r.sz.window, 2*runtime.GOMAXPROCS(0)) }

// printInputs prints the make-up of the run's inputs.
func (r *runner) printInputs() error {
	forest, err := r.d.cat.Get("forest")
	if err != nil {
		return err
	}
	dblife, err := r.d.cat.Get("dblife")
	if err != nil {
		return err
	}
	nnz := 0
	for _, row := range r.in.sparse {
		nnz += len(row.idx)
	}
	fmt.Printf("inputs forest rows=%d dims=%d aux=%d heap_pages=%d; dblife rows=%d dim=%d nnz=%d heap_pages=%d; pool_pages=%d\n",
		forest.NumRows(), denseDim, r.sz.auxDims, forest.NumPages(), dblife.NumRows(), r.sz.sparseDim, nnz,
		dblife.NumPages(), engine.DefaultPoolPages)
	fmt.Printf("inputs points=%d window=%d text_window=%d mixed_rate=%d/s stmt_epochs=%d retrain=%q\n",
		len(r.in.points), r.sz.window, r.textWindow(), r.sz.mixedRate,
		r.sz.stmtEpochs, r.retrainStmt(1))
	return nil
}

// retrainStmt is the served model's TRAIN; generation g trains with its
// own seed so that consecutive generations differ.
func (r *runner) retrainStmt(g int) string {
	return fmt.Sprintf("SELECT vec, label FROM forest TO TRAIN lr WITH epochs=%d, seed=%d INTO %s;",
		r.sz.retrainEpochs, 100+g, servedModel)
}

// --- statements ---

type stmtKind struct {
	op, metric string
	text       string
	check      func(body string) error
}

func (r *runner) statementKinds() []stmtKind {
	e := r.sz.stmtEpochs
	var dense, sharded model
	denseCheck := func(name string, keep *model) func(string) error {
		return func(body string) error {
			m, err := r.d.readModel(name)
			if err != nil {
				return err
			}
			*keep = m
			return checkDenseTrain(r.in.dense, m, body)
		}
	}
	var dist model
	return []stmtKind{
		{"train_dense", "train_dense_ms",
			fmt.Sprintf("SELECT vec, label FROM forest TO TRAIN lr WITH epochs=%d INTO m_dense;", e),
			denseCheck("m_dense", &dense)},
		{"train_sparse", "train_sparse_ms",
			fmt.Sprintf("SELECT vec, label FROM dblife TO TRAIN svm WITH epochs=%d INTO m_sparse;", e),
			func(body string) error {
				m, err := r.d.readModel("m_sparse")
				if err != nil {
					return err
				}
				return checkSparseTrain(r.in.sparse, m, body)
			}},
		{"train_sharded", "train_sharded_ms",
			fmt.Sprintf("SELECT vec, label FROM forest TO TRAIN lr WITH epochs=%d, shards=2 INTO m_sharded;", e),
			denseCheck("m_sharded", &sharded)},
		{"train_dist", "train_dist_ms",
			fmt.Sprintf("SELECT vec, label FROM forest TO TRAIN lr WITH epochs=%d, shards=2, executors='%s' INTO m_dist;",
				e, r.d.execAddrs),
			func(body string) error {
				if err := denseCheck("m_dist", &dist)(body); err != nil {
					return err
				}
				return checkBitEqual(sharded.w, dist.w)
			}},
		{"predict_into", "predict_into_ms",
			"SELECT * FROM forest TO PREDICT USING m_dense INTO preds;",
			func(string) error {
				rows, err := r.d.readPredictions("preds")
				if err != nil {
					return err
				}
				return checkPredictions(r.in.dense, dense.w, rows)
			}},
	}
}

// statementsPhase runs rounds of the five statements in a fixed order
// until the phase's time is up, always finishing the round. The run's
// first round warms up and is not timed.
func (r *runner) statementsPhase(d time.Duration) {
	kinds := r.statementKinds()
	phase := r.tr.begin("phase.statements", 0, 0)
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		round := r.rounds
		r.rounds++
		for i, k := range kinds {
			req := int64(round*len(kinds) + i + 1)
			io0 := r.d.io.snap()
			a0 := allocBytes()
			sp := r.tr.begin("stmt."+k.op, phase.id, req)
			t0 := time.Now()
			body, err := r.ctl.Exec(k.text)
			el := time.Since(t0)
			sp.end()
			a1 := allocBytes()
			io1 := r.d.io.snap()
			if err == nil {
				ck := r.tr.begin("check."+k.op, phase.id, req)
				err = k.check(body)
				ck.end()
			}
			r.led.record(k.op, err)
			// Only statements that succeeded and passed their check
			// are timed and counted.
			if round == 0 || err != nil {
				continue
			}
			r.add(k.metric, ms(el))
			if k.op == "train_dense" {
				r.add("train_alloc_mb", float64(a1-a0)/1e6)
			}
			s := r.stmtIO[k.op]
			r.stmtIO[k.op] = ioSnap{s.reads + io1.reads - io0.reads,
				s.writes + io1.writes - io0.writes, s.syncs + io1.syncs - io0.syncs}
			r.stmtN[k.op]++
		}
	}
	phase.end()
}

// --- serving ---

// servingPhase runs the four serving sub-phases in order, each for a
// quarter of the phase.
func (r *runner) servingPhase(d time.Duration) {
	q := d / 4
	conns := min(2, runtime.NumCPU())
	c0 := r.d.conns.snap()
	r.binFrm += r.pipelined("point_bin", conns, 1, false, q)
	c1 := r.d.conns.snap()
	r.binConn = connSnap{r.binConn.reads + c1.reads - c0.reads,
		r.binConn.writes + c1.writes - c0.writes, r.binConn.bytes + c1.bytes - c0.bytes}
	r.pipelined("batch8_bin", conns, 8, false, q)
	r.pipelined("point_text", 1, 1, true, q)
	r.roundTrips(q)
}

// tick is both the warm-up left out at the start of a timed sub-phase
// of length d and the length of one throughput sample: 50 ms, shorter
// only in smoke runs' brief sub-phases.
func tick(d time.Duration) time.Duration { return min(50*time.Millisecond, d/5) }

// pipelined keeps sz.window frames in flight on each of conns
// connections for d, and samples predictions answered per second in
// each whole tick after the warm-up. It returns the frames answered.
func (r *runner) pipelined(op string, conns, batch int, text bool, d time.Duration) int64 {
	phase := r.tr.begin("phase."+op, 0, 0)
	defer phase.end()
	start := time.Now()
	stopAt := start.Add(d)
	window := tick(d)
	nwin := int(d/window) + 2
	counts := make([][]int64, conns)
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		counts[c] = make([]int64, nwin)
		cl, err := server.Dial(r.d.main.addr)
		if err == nil && !text {
			err = cl.Binary()
		}
		if err != nil {
			r.led.record(op, fmt.Errorf("connecting: %w", err))
			continue
		}
		wg.Add(1)
		go func(c int, cl *server.Client) {
			defer wg.Done()
			n := r.pipeConn(op, cl, batch, text, start, stopAt, window, counts[c], phase.id, int64(c))
			total.Add(n)
		}(c, cl)
	}
	wg.Wait()
	// Window 0 is the warm-up; a last partial window is left out.
	for w := 1; (time.Duration(w+1) * window) <= d; w++ {
		var n int64
		for c := range counts {
			n += counts[c][w]
		}
		r.add(op+"_preds_per_s", float64(n)/window.Seconds())
	}
	return total.Load()
}

// pipeConn drives one pipelined connection: a sender keeps the window
// full until stopAt, the reader checks each response against the
// benchmark's own score and counts answered predictions per window. It
// returns the frames answered.
func (r *runner) pipeConn(op string, cl *server.Client, batch int, text bool,
	start, stopAt time.Time, window time.Duration, counts []int64, parent, conn int64) int64 {
	W := r.sz.window
	if text {
		W = r.textWindow()
	}
	P := len(r.in.points)
	// tokens carries the free slots of the window. A frame's id encodes
	// its slot and its sequence number, so the reader finds both without
	// shared maps, whatever order the answers come in.
	tokens := make(chan int, W)
	for i := 0; i < W; i++ {
		tokens <- i
	}
	inflight := make([]atomic.Uint64, W)
	sentAt := make([]atomic.Int64, W)
	pointOf := func(id uint64) int { return int((id-1)/uint64(W)*uint64(batch)) % P }
	var stopping atomic.Bool
	done := make(chan int64)

	go func() { // reader
		var n int64
		for {
			var f server.Frame
			var err error
			if text {
				f, err = cl.ReadFrame()
			} else {
				f, err = cl.ReadBinFrame()
			}
			now := time.Now()
			if err != nil {
				if !stopping.Load() {
					r.led.record(op, fmt.Errorf("reading: %w", err))
				}
				done <- n
				return
			}
			slot := int((f.ID - 1) % uint64(W))
			if f.ID == 0 || inflight[slot].Load() != f.ID {
				// Its slot stays taken: the frame that holds it is
				// reported unanswered at the end.
				r.led.record(op, wrong(fmt.Errorf("response id %d was not in flight", f.ID)))
				continue
			}
			idx := pointOf(f.ID)
			var cerr error
			if text {
				cerr = checkFrame(f, f.ID, r.expect[idx:idx+batch], textTol, true)
			} else {
				cerr = checkFrame(f, f.ID, r.expect[idx:idx+batch], scoreTol, false)
			}
			r.led.record(op, cerr)
			// One frame in 16 gets a span, which keeps the trace small.
			if r.tr != nil && f.ID%16 == 1 {
				r.tr.beginAt("frame."+op, parent, int64(f.ID)<<8|conn,
					r.tr.t0.Add(time.Duration(sentAt[slot].Load()))).end()
			}
			inflight[slot].Store(0)
			if w := int(now.Sub(start) / window); cerr == nil && w < len(counts) {
				counts[w] += int64(batch)
			}
			n++
			tokens <- slot
		}
	}()

	for seq := uint64(0); time.Now().Before(stopAt); seq++ {
		slot := <-tokens
		id := seq*uint64(W) + uint64(slot) + 1
		inflight[slot].Store(id)
		if r.tr != nil && id%16 == 1 {
			sentAt[slot].Store(int64(time.Since(r.tr.t0)))
		}
		idx := pointOf(id)
		var err error
		if text {
			err = cl.SendFrame(id, r.in.pointText[idx])
		} else {
			err = cl.SendBinPredict(id, servedModel, r.in.points[idx:idx+batch])
		}
		if err != nil {
			r.led.record(op, fmt.Errorf("sending: %w", err))
			break
		}
	}
	// Wait for every frame in flight, then close to end the reader.
	for i := 0; i < W; i++ {
		select {
		case <-tokens:
		case <-time.After(5 * time.Second):
			r.led.record(op, fmt.Errorf("frames still unanswered 5s after the phase"))
			i = W
		}
	}
	stopping.Store(true)
	cl.Close()
	return <-done
}

// roundTrips sends one binary point frame at a time and times each
// round trip.
func (r *runner) roundTrips(d time.Duration) {
	const op = "point_rtt"
	phase := r.tr.begin("phase."+op, 0, 0)
	defer phase.end()
	cl, err := server.Dial(r.d.main.addr)
	if err == nil {
		err = cl.Binary()
	}
	if err != nil {
		r.led.record(op, fmt.Errorf("connecting: %w", err))
		return
	}
	defer cl.Close()
	P := len(r.in.points)
	start := time.Now()
	warmEnd := start.Add(tick(d))
	stopAt := start.Add(d)
	var rtts []float64
	for id := uint64(1); time.Now().Before(stopAt); id++ {
		idx := int(id-1) % P
		var sp active // one round trip in 8 gets a span
		if id%8 == 1 {
			sp = r.tr.begin("rtt."+op, phase.id, int64(id))
		}
		t0 := time.Now()
		err := cl.SendBinPredict(id, servedModel, r.in.points[idx:idx+1])
		var f server.Frame
		if err == nil {
			f, err = cl.ReadBinFrame()
		}
		el := time.Since(t0)
		sp.end()
		if err == nil {
			err = checkFrame(f, id, r.expect[idx:idx+1], scoreTol, false)
		}
		r.led.record(op, err)
		if err == nil && t0.After(warmEnd) {
			rtts = append(rtts, us(el))
		}
	}
	r.latencies("point_rtt", rtts)
}

// --- mixed ---

// mixedPhase sends binary point frames open-loop at sz.mixedRate on one
// connection while a second connection retrains the served model back
// to back. Each frame is timed from when it was sent to its answer.
//
// The sender sleeps on Go's timers, which wake an idle scheduler only to
// the millisecond, so at this rate it runs up to about a millisecond late
// and sends the frames that fell due meanwhile back to back. Timing from
// the due time would count that lateness as the daemon's; the run prints
// it apart as mixed_send_late_us. Sleeping in the kernel instead keeps
// to the schedule, but a thread blocked in nanosleep holds one of the Go
// scheduler's two Ps, which slowed the daemon's own answers fourfold.
func (r *runner) mixedPhase(d time.Duration) {
	const op = "mixed_point"
	phase := r.tr.begin("phase.mixed", 0, 0)
	defer phase.end()
	cl, err := server.Dial(r.d.main.addr)
	if err == nil {
		err = cl.Binary()
	}
	if err != nil {
		r.led.record(op, fmt.Errorf("connecting: %w", err))
		return
	}
	defer cl.Close()
	h0, f0 := r.servedStats()
	cur := len(r.gens) - 1 // no answer can come from an older generation

	interval := time.Second / time.Duration(r.sz.mixedRate)
	n := int(d / interval)
	P := len(r.in.points)
	type answer struct {
		idx   int
		score float64
		err   error
	}
	answers := make([]answer, n)
	// When each frame went out, as an offset from start that the reader
	// may load, and when its answer came back.
	sent := make([]atomic.Int64, n)
	got := make([]time.Time, n)
	start := time.Now().Add(10 * time.Millisecond)
	due := func(id int) time.Time { return start.Add(time.Duration(id-1) * interval) }
	sentAt := func(id int) time.Time { return start.Add(time.Duration(sent[id-1].Load())) }
	warmEnd := start.Add(tick(d))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		for i := 0; i < n; i++ {
			f, err := cl.ReadBinFrame()
			now := time.Now()
			if err != nil {
				for ; i < n; i++ {
					answers[i] = answer{err: fmt.Errorf("reading: %w", err)}
				}
				return
			}
			id := int(f.ID)
			if id != i+1 {
				answers[i] = answer{err: wrong(fmt.Errorf("response id %d, want %d", f.ID, i+1))}
				continue
			}
			a := answer{idx: i % P}
			switch {
			case f.Err != "":
				a.err = fmt.Errorf("frame %d answered error %q", id, f.Err)
			case len(f.Scores) != 1:
				a.err = wrong(fmt.Errorf("frame %d carries %d scores", id, len(f.Scores)))
			default:
				a.score = f.Scores[0]
			}
			answers[i] = a
			got[i] = now
			if r.tr != nil {
				r.tr.beginAt("frame."+op, phase.id, int64(id), sentAt(id)).end()
			}
		}
	}()
	go func() { // open-loop sender
		defer wg.Done()
		for id := 1; id <= n; id++ {
			if w := time.Until(due(id)); w > 0 {
				time.Sleep(w)
			}
			sent[id-1].Store(int64(time.Since(start)))
			idx := (id - 1) % P
			if err := cl.SendBinPredict(uint64(id), servedModel, r.in.points[idx:idx+1]); err != nil {
				cl.Close() // ends the reader, which reports the missing answers
				return
			}
		}
	}()

	// Retrain back to back until the sender's schedule ends.
	type retrained struct {
		m     model
		body  string
		el    time.Duration
		timed bool // started after the warm-up
	}
	var done []retrained
	stopAt := due(n)
	for time.Now().Before(stopAt) {
		g := len(r.gens) // a seed of its own for every generation of the run
		sp := r.tr.begin("stmt.retrain", phase.id, int64(g))
		t0 := time.Now()
		body, err := r.ctl.Exec(r.retrainStmt(g))
		el := time.Since(t0)
		sp.end()
		var m model
		if err == nil {
			m, err = r.d.readModel(servedModel)
		}
		if err != nil {
			r.led.record("mixed_retrain", err)
			continue
		}
		r.served(m.w)
		done = append(done, retrained{m, body, el, t0.After(warmEnd)})
	}
	wg.Wait()
	h1, f1 := r.servedStats()
	r.hits += h1 - h0
	r.fills += f1 - f0

	for _, rt := range done {
		err := checkDenseTrain(r.in.dense, rt.m, rt.body)
		r.led.record("mixed_retrain", err)
		if err == nil && rt.timed {
			r.add("mixed_retrain_ms", ms(rt.el))
		}
	}
	gm := generationMatcher{gens: r.gens, cur: cur}
	var lats []float64
	for i, a := range answers {
		err := a.err
		if err == nil {
			err = gm.match(r.in.points[a.idx], a.score)
		}
		r.led.record(op, err)
		if err == nil && due(i+1).After(warmEnd) {
			lats = append(lats, us(got[i].Sub(sentAt(i+1))))
			r.lates = append(r.lates, us(sentAt(i+1).Sub(due(i+1))))
		}
	}
	r.latencies("mixed_point", lats)
}

// servedStats reads the served model's cache hits and fills.
func (r *runner) servedStats() (hits, fills uint64) {
	_, models := r.d.main.mgr.Plane().Stats()
	for _, m := range models {
		if m.Model == servedModel {
			return m.Hits, m.Fills
		}
	}
	return 0, 0
}
