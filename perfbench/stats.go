package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// median of the samples (NaN when there are none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minP99Samples is the fewest samples a p99 is reported from.
const minP99Samples = 1000

// printSamples prints how many samples a metric came from and their
// quartiles within the run.
func printSamples(name string, xs []float64) {
	fmt.Printf("samples %-26s n=%-7d p25=%-10.5g p50=%-10.5g p75=%-10.5g p99=%.5g\n",
		name, len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.99))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- runtime/metrics ---

type gcSample struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// pauseP99 is the 99th percentile GC pause between two samples, taken
// from the runtime's histogram as the upper edge of the bucket it falls
// in (0 when there was no pause).
func pauseP99(a, b gcSample) float64 {
	var total uint64
	delta := make([]uint64, len(b.pauses.Counts))
	for i := range delta {
		delta[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			edge := b.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauses.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// --- tracing ---

// span is one timed interval: a layer boundary the benchmark crossed.
// Spans of one request share req; parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip it.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// active is an open span.
type active struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	return active{tr: t, id: t.next.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// beginAt opens a span that started at a time already taken.
func (t *tracer) beginAt(name string, parent, req int64, start time.Time) active {
	a := t.begin(name, parent, req)
	a.start = start
	return a
}

func (a active) end() {
	if a.tr == nil {
		return
	}
	now := time.Now()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, span{ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: int64(a.start.Sub(a.tr.t0)), End: int64(now.Sub(a.tr.t0))})
	a.tr.mu.Unlock()
}

// selfTimes sets each span's self time: its duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// write computes self times, writes every span as one JSON line and
// prints each span name's median self time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	byName := map[string][]float64{}
	var names []string
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], float64(s.SelfNS)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span %-22s n=%-7d self_p50_us=%.4g\n", n, len(byName[n]), median(byName[n]))
	}
	fmt.Printf("trace %d spans written to %s\n", len(t.spans), path)
	return nil
}
