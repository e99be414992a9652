package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// sizes fixes the make-up of one run's inputs. The workload seed picks
// the values; the sizes are the same for every seed, so every run does
// the same amount of work.
type sizes struct {
	denseRows     int // Forest-style rows (54 dense features)
	auxDims       int // width of the unselected aux column on spill (0 on fit)
	sparseRows    int // DBLife-style rows
	sparseDim     int // sparse feature space
	sparseNNZ     int // mean nonzeros per sparse row
	points        int // distinct serving points
	stmtEpochs    int // epochs of each statements-phase TRAIN
	retrainEpochs int // epochs of each mixed-phase retrain
	window        int // pipelined frames in flight per connection
	mixedRate     int // open-loop point frames per second on mixed
}

const denseDim = 54

func fullSizes(workload string) sizes {
	s := sizes{
		denseRows: 14000, sparseRows: 16000, sparseDim: 20000, sparseNNZ: 16,
		points: 1024, stmtEpochs: 8, retrainEpochs: 3, window: 32, mixedRate: 2000,
	}
	if workload == "spill" {
		s.auxDims = 64
	}
	return s
}

// smokeSizes shrinks every input so the whole run takes a few seconds;
// the test of the benchmark uses it.
func smokeSizes(workload string) sizes {
	s := sizes{
		denseRows: 1500, sparseRows: 1500, sparseDim: 2000, sparseNNZ: 8,
		points: 64, stmtEpochs: 2, retrainEpochs: 1, window: 8, mixedRate: 500,
	}
	if workload == "spill" {
		s.auxDims = 16
	}
	return s
}

// denseRow is one Forest-style example.
type denseRow struct {
	x   []float64
	aux []float64
	y   float64
}

// sparseRow is one DBLife-style example.
type sparseRow struct {
	idx []int32
	val []float64
	y   float64
}

// inputs is everything one run generates from its seed. The program only
// ever sees these values, loaded into its catalog or sent over the wire.
type inputs struct {
	dense  []denseRow
	sparse []sparseRow
	points [][]float64 // serving points, dense, denseDim values each
	// pointText[i] is the text point-PREDICT statement for points[i].
	pointText []string
}

func generate(sz sizes, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}

	// Dense: labels alternate; the first 8 features carry the signal.
	dir := make([]float64, denseDim)
	for j := 0; j < 8; j++ {
		dir[j] = 1 + rng.Float64()
	}
	in.dense = make([]denseRow, sz.denseRows)
	for i := range in.dense {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		x := make([]float64, denseDim)
		for j := range x {
			x[j] = rng.NormFloat64() + 0.6*y*dir[j]
		}
		var aux []float64
		if sz.auxDims > 0 {
			aux = make([]float64, sz.auxDims)
			for j := range aux {
				aux[j] = rng.Float64()
			}
		}
		in.dense[i] = denseRow{x: x, aux: aux, y: y}
	}

	// Sparse: Zipf-popular features, labels from a sparse direction on the
	// frequent head, 8% label noise.
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(sz.sparseDim-1))
	truth := make([]float64, sz.sparseDim)
	for f := 0; f < sz.sparseDim/40; f += 2 {
		truth[f] = rng.NormFloat64()
	}
	in.sparse = make([]sparseRow, sz.sparseRows)
	for i := range in.sparse {
		nnz := 1 + rng.Intn(2*sz.sparseNNZ)
		seen := make(map[int32]float64, nnz)
		for k := 0; k < nnz; k++ {
			seen[int32(zipf.Uint64())] = 1 + 0.2*rng.NormFloat64()
		}
		idx := make([]int32, 0, len(seen))
		for f := range seen {
			idx = append(idx, f)
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float64, len(idx))
		score := 0.0
		for k, f := range idx {
			val[k] = seen[f]
			score += truth[f] * val[k]
		}
		y := 1.0
		if score+0.1*rng.NormFloat64() < 0 {
			y = -1
		}
		if rng.Float64() < 0.08 {
			y = -y
		}
		in.sparse[i] = sparseRow{idx: idx, val: val, y: y}
	}

	in.points = make([][]float64, sz.points)
	in.pointText = make([]string, sz.points)
	for i := range in.points {
		p := make([]float64, denseDim)
		var b strings.Builder
		b.WriteString("PREDICT (")
		for j := range p {
			// Rounded to 6 decimals so the text statement carries the
			// exact value the binary frame does.
			p[j] = math.Round((2*rng.Float64()-1)*1e6) / 1e6
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(p[j], 'f', -1, 64))
		}
		b.WriteString(") USING " + servedModel)
		in.points[i] = p
		in.pointText[i] = b.String()
	}
	return in
}

// --- the benchmark's own arithmetic, kept apart from the program's ---

func dot(w, x []float64) float64 {
	s := 0.0
	for i, v := range x {
		if i < len(w) {
			s += w[i] * v
		}
	}
	return s
}

func dotSparse(w []float64, idx []int32, val []float64) float64 {
	s := 0.0
	for k, f := range idx {
		if int(f) < len(w) {
			s += w[f] * val[k]
		}
	}
	return s
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// logLoss is log(1+exp(z)) computed without overflow.
func logLoss(z float64) float64 {
	if z > 30 {
		return z
	}
	return math.Log1p(math.Exp(z))
}

func l2penalty(w []float64, mu float64) float64 {
	if mu == 0 {
		return 0
	}
	n := 0.0
	for _, v := range w {
		n += v * v
	}
	return 0.5 * mu * n
}

// lrObjective is Σ log(1+exp(−y·wᵀx)) + (µ/2)‖w‖² over the dense rows.
func lrObjective(rows []denseRow, w []float64, mu float64) float64 {
	s := 0.0
	for _, r := range rows {
		s += logLoss(-r.y * dot(w, r.x))
	}
	return s + l2penalty(w, mu)
}

// svmObjective is Σ (1 − y·wᵀx)₊ + (µ/2)‖w‖² over the sparse rows.
func svmObjective(rows []sparseRow, w []float64, mu float64) float64 {
	s := 0.0
	for _, r := range rows {
		if l := 1 - r.y*dotSparse(w, r.idx, r.val); l > 0 {
			s += l
		}
	}
	return s + l2penalty(w, mu)
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }
