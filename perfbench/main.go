// Command perfbench is bismarck's end-to-end benchmark. One run hosts the
// daemon in its own process — a server.Manager over a file catalog,
// served by server.TCPServer on loopback, plus two shard executors — and
// drives it through three phases over the wire, checking every answer:
//
//   - statements: TRAIN (dense, sparse, shards=2, executors=) and
//     PREDICT INTO, back to back on one connection;
//   - serving: pipelined binary point and batch-8 frames, pipelined text
//     frames, then unpipelined binary round trips;
//   - mixed: open-loop binary point frames while a second connection
//     retrains the served model back to back.
//
// The workload picks the dense source's width against the buffer pool:
// on fit its heap fits the daemon's 1024-page pool, on spill an
// unselected aux column makes it larger, so every projection re-reads
// it from the file store. Run it from the repository root:
//
//	bash perfbench/run.sh --workload spill --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics; with --trace 1 they are the per-layer metrics, and the spans
// are written under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts attempted and failed operations per type. An operation
// fails when the program answers it with an error, or when its answer
// fails a check; the second kind is also counted as wrong, and one wrong
// answer makes the run incorrect.
type ledger struct {
	mu    sync.Mutex
	order []string
	ops   map[string]*opCount
}

type opCount struct {
	attempted, failed, wrong int64
	firstErr                 string
}

// wrongAnswer marks the error of a check that the program's answer
// failed, as against an operation the program did not answer.
type wrongAnswer struct{ error }

func (w wrongAnswer) Unwrap() error { return w.error }

// wrong marks err, if any, as a wrong answer.
func wrong(err error) error {
	if err == nil {
		return nil
	}
	return wrongAnswer{err}
}

func (l *ledger) record(op string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ops == nil {
		l.ops = map[string]*opCount{}
	}
	c, ok := l.ops[op]
	if !ok {
		c = &opCount{}
		l.ops[op] = c
		l.order = append(l.order, op)
	}
	c.attempted++
	if err != nil {
		c.failed++
		if errors.As(err, new(wrongAnswer)) {
			c.wrong++
		}
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
	}
}

// result gives the run's counts with metrics m. The run is correct when
// it attempted something and no answer failed a check.
func (l *ledger) result(m map[string]metric) *result {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := &result{Metrics: m}
	var wrongs int64
	for _, c := range l.ops {
		res.Attempted += c.attempted
		res.Failed += c.failed
		wrongs += c.wrong
	}
	res.Correct = res.Attempted > 0 && wrongs == 0
	return res
}

func (l *ledger) print() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, op := range l.order {
		c := l.ops[op]
		line := fmt.Sprintf("ops %-14s attempted=%d failed=%d wrong=%d", op, c.attempted, c.failed, c.wrong)
		if c.firstErr != "" {
			line += "  first failure: " + c.firstErr
		}
		fmt.Println(line)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "fit or spill")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds, split across the three phases")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink inputs to check the benchmark itself")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit stamp (run.sh passes git's when there is one)")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.workload != "fit" && cfg.workload != "spill" {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be fit or spill, got %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result.
func run(cfg config) (*result, error) {
	// All load comes from this process: cap the scheduler at the
	// machine's CPUs, as the client connections are.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	printStamp(cfg, nproc)
	sz := fullSizes(cfg.workload)
	setups := 5
	if cfg.smoke {
		sz = smokeSizes(cfg.workload)
		setups = 1
	}

	// Set-up is timed several times and reported as a median; only the
	// last instance is measured.
	var setupTimes []float64
	var r *runner
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = setup(cfg, sz); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	res, err := r.measure(setupTimes)
	if cerr := r.close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// measure runs the phases on a set-up runner and collects the result.
func (r *runner) measure(setupTimes []float64) (*result, error) {
	cfg := r.cfg
	if err := r.printInputs(); err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = metric{median(setupTimes), "s"}

	// The phases take turns in cycles, so that every metric's samples
	// spread over the whole run instead of one stretch of it.
	cycles := 10
	if cfg.smoke {
		cycles = 2
	}
	cycle := time.Duration(cfg.seconds * float64(time.Second) / float64(cycles))
	gc0 := readGC()
	for c := 0; c < cycles; c++ {
		r.statementsPhase(cycle * 40 / 100)
		runtime.GC()
		r.servingPhase(cycle * 35 / 100)
		runtime.GC()
		r.mixedPhase(cycle * 25 / 100)
		runtime.GC()
	}
	r.recordGC(gc0, readGC())
	if err := r.finish(); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := r.driveLayers(); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	r.led.print()
	res := r.led.result(r.e2e)
	if cfg.trace {
		// The traced run's end-to-end figures, for the tracing overhead;
		// the result carries the per-layer metrics.
		printMetrics("traced-e2e", r.e2e)
		res.Metrics = r.layer
	}
	printMetrics("metric", res.Metrics)
	return res, nil
}

func printMetrics(prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

// printStamp prints what produced the run's figures.
func printStamp(cfg config, nproc int) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("stamp go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), nproc, cpu, cfg.commit)
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%v smoke=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
}
