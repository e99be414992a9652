package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/dist"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// The daemon's internal calls cannot be timed from outside the program,
// so the traced run drives each module's public functions directly with
// the run's own inputs, after the phases, while the daemon is idle.

const layerReps = 5

// timeIt runs fn reps times and returns each run's duration.
func timeIt(reps int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// perOp is the median over reps of one pass's time per operation, in ns.
func perOp(reps, ops int, pass func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		pass()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// trainSetup is what the statement layer builds before training: the
// parsed statement, its task, knobs and projected view.
type trainSetup struct {
	st    *spec.Statement
	ts    *spec.TaskSpec
	knobs spec.Knobs
	view  *spec.View
	task  core.Task
}

func (r *runner) prepareTrain(text string) (*trainSetup, error) {
	st, err := spec.Parse(text)
	if err != nil {
		return nil, err
	}
	ts, err := spec.Lookup(st.Task)
	if err != nil {
		return nil, err
	}
	knobs, rest, err := spec.SplitKnobs(st.With)
	if err != nil {
		return nil, err
	}
	params, err := spec.BindParams(ts.Params, rest)
	if err != nil {
		return nil, err
	}
	src, err := r.d.cat.Get(st.From)
	if err != nil {
		return nil, err
	}
	view, err := spec.ProjectView(src, st, ts.Schema, spec.ViewOptions{})
	if err != nil {
		return nil, err
	}
	task, err := ts.Build(spec.BuildInput{Params: params, View: view.Table})
	if err != nil {
		return nil, err
	}
	return &trainSetup{st: st, ts: ts, knobs: knobs, view: view, task: task}, nil
}

func (r *runner) driveLayers() error {
	kinds := r.statementKinds()
	if err := r.specLayers(kinds); err != nil {
		return fmt.Errorf("spec layer: %w", err)
	}
	if err := r.engineLayers(kinds); err != nil {
		return fmt.Errorf("engine layer: %w", err)
	}
	if err := r.servingLayers(); err != nil {
		return fmt.Errorf("serving layers: %w", err)
	}
	if err := r.distLayers(kinds); err != nil {
		return fmt.Errorf("dist layer: %w", err)
	}
	r.addLayer("loadgen.late_p50_us", median(r.lates), "us")
	r.addLayer("loadgen.late_p99_us", quantile(r.lates, 0.99), "us")
	return nil
}

func (r *runner) specLayers(kinds []stmtKind) error {
	var parse []float64
	for _, text := range r.in.pointText {
		t0 := time.Now()
		if _, err := spec.Parse(text); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t0)))
	}
	r.addLayer("spec.parse_us", median(parse), "us")

	dense, err := r.prepareTrain(kinds[0].text)
	if err != nil {
		return err
	}
	src, err := r.d.cat.Get(dense.st.From)
	if err != nil {
		return err
	}
	var projMS, projMB []float64
	for i := 0; i < layerReps; i++ {
		a0 := allocBytes()
		t0 := time.Now()
		if _, err := spec.ProjectView(src, dense.st, dense.ts.Schema, spec.ViewOptions{}); err != nil {
			return err
		}
		projMS = append(projMS, ms(time.Since(t0)))
		projMB = append(projMB, float64(allocBytes()-a0)/1e6)
	}
	r.addLayer("spec.project_ms", median(projMS), "ms")
	r.addLayer("spec.project_alloc_mb", median(projMB), "MB")

	train, err := timeIt(3, func() error {
		_, err := spec.TrainIGD(dense.task, dense.knobs, dense.view.Table)
		return err
	})
	if err != nil {
		return err
	}
	r.addLayer("spec.train_igd_ms", medianMS(train), "ms")
	r.addLayer("spec.epoch_ms", medianMS(train)/float64(dense.knobs.Epochs), "ms")

	distSet, err := r.prepareTrain(kinds[3].text)
	if err != nil {
		return err
	}
	distT, err := timeIt(3, func() error {
		_, err := spec.TrainDistributed(distSet.ts, distSet.task, distSet.knobs, distSet.view.Table)
		return err
	})
	if err != nil {
		return err
	}
	r.addLayer("spec.train_dist_ms", medianMS(distT), "ms")
	return nil
}

func (r *runner) engineLayers(kinds []stmtKind) error {
	dense, err := r.prepareTrain(kinds[0].text)
	if err != nil {
		return err
	}
	view := dense.view.Table
	var mat []time.Duration
	for i := 0; i < layerReps; i++ {
		cp := engine.NewMemTable("perfbench_mat", view.Schema)
		if err := view.CopyTo(cp); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := cp.Materialize(); err != nil {
			return err
		}
		mat = append(mat, time.Since(t0))
	}
	r.addLayer("engine.materialize_ms", medianMS(mat), "ms")

	shard, err := timeIt(layerReps, func() error {
		st, err := engine.ShardTable(view, 2, engine.ShardRoundRobin)
		if err != nil {
			return err
		}
		return st.Close()
	})
	if err != nil {
		return err
	}
	r.addLayer("engine.shard_table_ms", medianMS(shard), "ms")

	var stmts int
	var tot ioSnap
	for op, n := range r.stmtN {
		stmts += n
		s := r.stmtIO[op]
		tot = ioSnap{tot.reads + s.reads, tot.writes + s.writes, tot.syncs + s.syncs}
	}
	per := func(v int64, n int) float64 { return float64(v) / float64(max(n, 1)) }
	r.addLayer("engine.page_reads_per_stmt", per(tot.reads, stmts), "count")
	r.addLayer("engine.page_writes_per_stmt", per(tot.writes, stmts), "count")
	r.addLayer("engine.fsyncs_per_stmt", per(tot.syncs, stmts), "count")
	r.addLayer("engine.page_reads_per_train_dense", per(r.stmtIO["train_dense"].reads, r.stmtN["train_dense"]), "count")
	r.addLayer("engine.page_reads_per_train_sparse", per(r.stmtIO["train_sparse"].reads, r.stmtN["train_sparse"]), "count")
	r.addLayer("engine.page_writes_per_predict_into", per(r.stmtIO["predict_into"].writes, r.stmtN["predict_into"]), "count")

	// A shadow generation the size of the PREDICT INTO result, committed
	// the way the statement layer commits one.
	const final = "perfbench_swap"
	schema := engine.Schema{{Name: "id", Type: engine.TInt64}, {Name: "score", Type: engine.TFloat64}}
	swap, err := timeIt(layerReps, func() error {
		sh, err := r.d.cat.Create(final+engine.ShadowSuffix, schema)
		if err != nil {
			return err
		}
		for i := range r.in.dense {
			if err := sh.Insert(engine.Tuple{engine.I64(int64(i)), engine.F64(r.expect[i%len(r.expect)])}); err != nil {
				return err
			}
		}
		if err := sh.Flush(); err != nil {
			return err
		}
		if err := sh.Sync(); err != nil {
			return err
		}
		return r.d.cat.Swap([]string{final}, []string{final + engine.ShadowSuffix}, nil)
	})
	if err != nil {
		return err
	}
	r.addLayer("engine.swap_ms", medianMS(swap), "ms")
	return nil
}

func (r *runner) servingLayers() error {
	sess := &sqlish.Session{Cat: r.d.cat, Out: io.Discard}
	var load []float64
	var snap *sqlish.ModelSnapshot
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		s, _, err := sess.LoadSnapshot(servedModel)
		if err != nil {
			return err
		}
		load = append(load, us(time.Since(t0)))
		snap = s
	}
	r.addLayer("sqlish.load_snapshot_us", median(load), "us")

	// The timed loops keep the last error and report it after timing.
	pts := r.in.points
	var failed error
	var sc sqlish.PointScratch
	r.addLayer("sqlish.score_ns", perOp(20, len(pts), func() {
		for _, p := range pts {
			if _, err := sc.Score(snap, p); err != nil {
				failed = err
			}
		}
	}), "ns")
	plane := r.d.main.mgr.Plane()
	scores := make([]float64, 1)
	r.addLayer("serve.predict_ns", perOp(20, len(pts), func() {
		for i := range pts {
			if _, err := plane.Predict(servedModel, pts[i:i+1], scores); err != nil {
				failed = err
			}
		}
	}), "ns")
	r.addLayer("serve.admit_release_ns", perOp(20, len(pts), func() {
		for range pts {
			ad, err := plane.Admit(servedModel)
			if err != nil {
				failed = err
				continue
			}
			ad.Wait(nil)
			ad.Release()
		}
	}), "ns")
	cache := plane.Cache()
	r.addLayer("serve.cache_lookup_ns", perOp(20, len(pts), func() {
		for range pts {
			if _, _, ok := cache.Lookup(servedModel); !ok {
				failed = fmt.Errorf("served model missing from the cache")
			}
		}
	}), "ns")
	if failed != nil {
		return failed
	}

	hits, fills := float64(r.hits), float64(r.fills)
	r.addLayer("serve.cache_fills", fills, "count")
	r.addLayer("serve.cache_requests", hits+fills, "count")
	r.addLayer("serve.cache_hit_ratio", hits/max(hits+fills, 1), "ratio")
	fmt.Printf("layer serve.cache_hit_ratio = %.0f hits / %.0f requests (mixed phase)\n", hits, hits+fills)

	frames := float64(max(r.binFrm, 1))
	r.addLayer("server.conn_writes_per_frame", float64(r.binConn.writes)/frames, "count")
	r.addLayer("server.conn_reads_per_frame", float64(r.binConn.reads)/frames, "count")
	r.addLayer("server.bytes_per_frame", float64(r.binConn.bytes)/frames, "bytes")
	fmt.Printf("layer server.*_per_frame over %d binary point frames\n", r.binFrm)
	return nil
}

func buildTask(name string, params map[string]string) (core.Task, error) {
	ts, err := spec.Lookup(name)
	if err != nil {
		return nil, err
	}
	p, err := spec.RebindStrings(ts.Params, params)
	if err != nil {
		return nil, err
	}
	return ts.Build(spec.BuildInput{Params: p})
}

func (r *runner) distLayers(kinds []stmtKind) error {
	set, err := r.prepareTrain(kinds[3].text)
	if err != nil {
		return err
	}
	sharded, err := engine.ShardTable(set.view.Table, 2, engine.ShardRoundRobin)
	if err != nil {
		return err
	}
	defer sharded.Close()
	task := dist.ShardTask{Name: set.ts.Name, Params: set.ts.Snapshot(set.task),
		Order: dist.OrderByte(set.knobs.Order), Seed: set.knobs.Seed}
	addrs := strings.Split(r.d.execAddrs, ",")
	epochs := set.knobs.Epochs
	dim := set.task.Dim()

	var ship []time.Duration
	var steps, losses, bytesPerEpoch []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		co, err := dist.NewCoordinator(addrs, sharded, task, 0)
		if err != nil {
			return err
		}
		ship = append(ship, time.Since(t0))
		w := make([]float64, dim)
		replica := make([]float64, dim)
		c0 := r.d.execConns.snap()
		for e := 0; e < epochs && err == nil; e++ {
			for _, run := range co.Runners() {
				t := time.Now()
				if err = run.RunEpoch(e, w, 0.1, replica); err != nil {
					break
				}
				steps = append(steps, us(time.Since(t)))
				t = time.Now()
				if _, err = run.LossAt(w); err != nil {
					break
				}
				losses = append(losses, us(time.Since(t)))
			}
		}
		bytesPerEpoch = append(bytesPerEpoch, float64(r.d.execConns.snap().bytes-c0.bytes)/float64(epochs))
		co.Close()
		if err != nil {
			return err
		}
	}
	r.addLayer("dist.ship_ms", medianMS(ship), "ms")
	r.addLayer("dist.step_rtt_us", median(steps), "us")
	r.addLayer("dist.loss_rtt_us", median(losses), "us")
	r.addLayer("dist.bytes_per_epoch", median(bytesPerEpoch), "bytes")

	// One shard hosted by an executor with no socket in between.
	ex := dist.NewExecutor(buildTask, nil)
	defer ex.Close()
	handle := func(frame []byte, err error) error {
		if err != nil {
			return err
		}
		resp, ok := ex.Handle(frame[4:])
		if !ok || len(resp) < 5 || resp[4] != 0 {
			return fmt.Errorf("executor refused op %d: %q", frame[4], resp)
		}
		return nil
	}
	var id uint64
	next := func() uint64 { id++; return id }
	if err := handle(dist.AppendLoad(nil, next(), 0, task.Order, task.Seed, task.Name, task.Params, sharded.Schema)); err != nil {
		return err
	}
	if err := sharded.ShardChunks(0, dist.MaxRowChunkBytes, func(recs [][]byte) error {
		return handle(dist.AppendRows(nil, next(), 0, recs))
	}); err != nil {
		return err
	}
	if err := handle(dist.AppendShardOnly(nil, dist.OpShardSeal, next(), 0)); err != nil {
		return err
	}
	w := make([]float64, dim)
	var exec []float64
	var buf []byte
	for e := 0; e < epochs; e++ {
		buf, err = dist.AppendStep(buf[:0], next(), 0, e, 0.1, w)
		t0 := time.Now()
		if err := handle(buf, err); err != nil {
			return err
		}
		exec = append(exec, us(time.Since(t0)))
	}
	r.addLayer("dist.executor_step_us", median(exec), "us")
	return nil
}

// recordGC adds the run's garbage-collector figures over the phases.
func (r *runner) recordGC(a, b gcSample) {
	r.addLayer("runtime.gc_cycles", float64(b.cycles-a.cycles), "count")
	r.addLayer("runtime.gc_pause_p99_us", pauseP99(a, b)*1e6, "us")
}
