package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"

	"bismarck/internal/server"
)

// Tolerances of the checks. Each recomputes in the benchmark's own code
// what the program answered, from the generated inputs and the model
// coefficients read back from the catalog.
const (
	// lossTol bounds the relative gap between the loss a TRAIN printed
	// (%.6g, so up to 5e-6 off) and the objective recomputed here in a
	// different summation order.
	lossTol = 2e-5
	// scoreTol is the absolute gap allowed between a binary or stored
	// score and sigmoid(w·x) computed here.
	scoreTol = 1e-9
	// textTol is the relative gap allowed on a text frame, whose scores
	// travel as %.6g.
	textTol = 1e-5
)

var finalLossRE = regexp.MustCompile(`final loss ([^;]+);`)

// printedLoss extracts the loss a TRAIN statement reported.
func printedLoss(body string) (float64, error) {
	m := finalLossRE.FindStringSubmatch(body)
	if m == nil {
		return 0, wrong(fmt.Errorf("no final loss in %q", body))
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, wrong(fmt.Errorf("final loss %q: %v", m[1], err))
	}
	return v, nil
}

// Every check below returns a wrongAnswer error: the program answered,
// and the answer is not what the benchmark computes. Only an error frame
// from the program is a plain failure.

// checkObjective accepts a trained model whose recomputed objective is
// below the zero model's and matches the loss the statement printed.
func checkObjective(obj, zero, printed float64) error {
	if math.IsNaN(obj) || !(obj < zero) {
		return wrong(fmt.Errorf("objective %s is not below the zero model's %s", fmtF(obj), fmtF(zero)))
	}
	if d := relDiff(obj, printed); !(d <= lossTol) {
		return wrong(fmt.Errorf("recomputed objective %s, statement printed %s (rel diff %.3g > %g)",
			fmtF(obj), fmtF(printed), d, lossTol))
	}
	return nil
}

// checkDenseTrain checks an lr model trained over the dense rows.
func checkDenseTrain(rows []denseRow, m model, body string) error {
	printed, err := printedLoss(body)
	if err != nil {
		return err
	}
	zero := lrObjective(rows, make([]float64, len(m.w)), 0)
	return checkObjective(lrObjective(rows, m.w, m.mu), zero, printed)
}

// checkSparseTrain checks an svm model trained over the sparse rows.
func checkSparseTrain(rows []sparseRow, m model, body string) error {
	printed, err := printedLoss(body)
	if err != nil {
		return err
	}
	zero := svmObjective(rows, make([]float64, len(m.w)), 0)
	return checkObjective(svmObjective(rows, m.w, m.mu), zero, printed)
}

// checkPredictions checks a PREDICT INTO result: one row per source row,
// each id once, each score sigmoid(w·x) of that id's row.
func checkPredictions(rows []denseRow, w []float64, got []idScore) error {
	if len(got) != len(rows) {
		return wrong(fmt.Errorf("%d prediction rows, source has %d", len(got), len(rows)))
	}
	seen := make([]bool, len(rows))
	for _, p := range got {
		if p.id < 0 || p.id >= int64(len(rows)) || seen[p.id] {
			return wrong(fmt.Errorf("prediction id %d is out of range or repeated", p.id))
		}
		seen[p.id] = true
		if want := sigmoid(dot(w, rows[p.id].x)); !(math.Abs(p.score-want) <= scoreTol) {
			return wrong(fmt.Errorf("prediction for id %d is %v, want %v", p.id, p.score, want))
		}
	}
	return nil
}

// checkBitEqual requires two models to be identical bit for bit.
func checkBitEqual(a, b []float64) error {
	if len(a) != len(b) {
		return wrong(fmt.Errorf("models have %d and %d coefficients", len(a), len(b)))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return wrong(fmt.Errorf("coefficient %d differs: %v vs %v", i, a[i], b[i]))
		}
	}
	return nil
}

// checkFrame checks one serving response: no error, the id that was
// asked, and one score per point within tol (relative when rel is set).
func checkFrame(f server.Frame, id uint64, want []float64, tol float64, rel bool) error {
	if f.Err != "" {
		return fmt.Errorf("frame %d answered error %q", f.ID, f.Err)
	}
	if f.ID != id {
		return wrong(fmt.Errorf("frame answered id %d, want %d", f.ID, id))
	}
	if len(f.Scores) != len(want) {
		return wrong(fmt.Errorf("frame %d carries %d scores, want %d", id, len(f.Scores), len(want)))
	}
	for i, s := range f.Scores {
		d := math.Abs(s - want[i])
		if rel {
			d = relDiff(s, want[i])
		}
		if !(d <= tol) {
			return wrong(fmt.Errorf("frame %d score %d is %v, want %v", id, i, s, want[i]))
		}
	}
	return nil
}

// generationMatcher checks the mixed phase's scores: each must equal
// sigmoid(w·x) under one model generation the benchmark read back, and
// since one binary connection is answered in order, the generations seen
// never go backwards. A score that matches no generation at or after the
// previous one is wrong or from a torn model.
type generationMatcher struct {
	gens [][]float64
	cur  int
}

func (gm *generationMatcher) match(x []float64, score float64) error {
	for g := gm.cur; g < len(gm.gens); g++ {
		if math.Abs(score-sigmoid(dot(gm.gens[g], x))) <= scoreTol {
			gm.cur = g
			return nil
		}
	}
	return wrong(fmt.Errorf("score %v matches no model generation from %d of %d on", score, gm.cur, len(gm.gens)))
}
