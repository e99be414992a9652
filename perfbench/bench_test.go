package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"bismarck/internal/server"
)

func lossBody(loss float64) string {
	return fmt.Sprintf("LR trained on forest via IGD: 8 epochs, final loss %.6g; model saved to table \"m\"\n", loss)
}

// goodDenseModel leans on the informative features, so it beats the
// zero model.
func goodDenseModel() []float64 {
	w := make([]float64, denseDim)
	for j := 0; j < 8; j++ {
		w[j] = 0.3
	}
	return w
}

func perturbed(w []float64) []float64 {
	p := append([]float64(nil), w...)
	p[3] += 0.05
	return p
}

func TestTrainChecksRejectPerturbedCoefficients(t *testing.T) {
	in := generate(smokeSizes("fit"), 7)
	w := goodDenseModel()
	body := lossBody(lrObjective(in.dense, w, 0))
	if err := checkDenseTrain(in.dense, model{w: w}, body); err != nil {
		t.Fatalf("true model rejected: %v", err)
	}
	if err := checkDenseTrain(in.dense, model{w: perturbed(w)}, body); err == nil {
		t.Fatal("perturbed dense model accepted")
	}
	zero := make([]float64, denseDim)
	if err := checkDenseTrain(in.dense, model{w: zero}, lossBody(lrObjective(in.dense, zero, 0))); err == nil {
		t.Fatal("zero model accepted although it is not below the zero objective")
	}
	if err := checkDenseTrain(in.dense, model{w: w}, "no loss here"); err == nil {
		t.Fatal("statement output without a loss accepted")
	}

	sw := make([]float64, smokeSizes("fit").sparseDim)
	for _, r := range in.sparse {
		for k, f := range r.idx {
			sw[f] += 0.01 * r.y * r.val[k]
		}
	}
	sbody := lossBody(svmObjective(in.sparse, sw, 0))
	if err := checkSparseTrain(in.sparse, model{w: sw}, sbody); err != nil {
		t.Fatalf("true sparse model rejected: %v", err)
	}
	sp := append([]float64(nil), sw...)
	sp[int(in.sparse[0].idx[0])] += 0.5
	if err := checkSparseTrain(in.sparse, model{w: sp}, sbody); err == nil {
		t.Fatal("perturbed sparse model accepted")
	}
}

func TestPredictionCheckRejectsWrongScoresAndIDs(t *testing.T) {
	in := generate(smokeSizes("fit"), 7)
	w := goodDenseModel()
	rows := make([]idScore, len(in.dense))
	for i, r := range in.dense {
		rows[i] = idScore{int64(i), sigmoid(dot(w, r.x))}
	}
	if err := checkPredictions(in.dense, w, rows); err != nil {
		t.Fatalf("true predictions rejected: %v", err)
	}
	if err := checkPredictions(in.dense, perturbed(w), rows); err == nil {
		t.Fatal("predictions accepted against a perturbed model")
	}
	swapped := append([]idScore(nil), rows...)
	swapped[0].id, swapped[1].id = swapped[1].id, swapped[0].id
	if err := checkPredictions(in.dense, w, swapped); err == nil {
		t.Fatal("predictions with swapped ids accepted")
	}
	dup := append([]idScore(nil), rows...)
	dup[1].id = 0
	if err := checkPredictions(in.dense, w, dup); err == nil {
		t.Fatal("predictions with a repeated id accepted")
	}
	if err := checkPredictions(in.dense, w, rows[1:]); err == nil {
		t.Fatal("predictions missing a row accepted")
	}
}

func TestBitEqualCheck(t *testing.T) {
	w := goodDenseModel()
	if err := checkBitEqual(w, append([]float64(nil), w...)); err != nil {
		t.Fatalf("identical models rejected: %v", err)
	}
	p := append([]float64(nil), w...)
	p[0] = math.Nextafter(p[0], 1)
	if err := checkBitEqual(w, p); err == nil {
		t.Fatal("models one ulp apart accepted")
	}
}

func TestFrameCheckRejectsWrongIDAndScore(t *testing.T) {
	want := []float64{0.25, 0.75}
	ok := server.Frame{ID: 9, Scores: []float64{0.25, 0.75}}
	if err := checkFrame(ok, 9, want, scoreTol, false); err != nil {
		t.Fatalf("true frame rejected: %v", err)
	}
	if err := checkFrame(ok, 8, want, scoreTol, false); err == nil {
		t.Fatal("frame with a wrong id accepted")
	}
	off := server.Frame{ID: 9, Scores: []float64{0.25, 0.75 + 1e-8}}
	if err := checkFrame(off, 9, want, scoreTol, false); err == nil {
		t.Fatal("frame with a wrong score accepted")
	}
	if err := checkFrame(server.Frame{ID: 9, Err: "busy: queue full"}, 9, want, scoreTol, false); err == nil {
		t.Fatal("busy frame accepted")
	}
	text := server.Frame{ID: 9, Scores: []float64{0.250001, 0.75}}
	if err := checkFrame(text, 9, want, textTol, true); err != nil {
		t.Fatalf("text frame within %%.6g rejected: %v", err)
	}
	text.Scores[0] = 0.2501
	if err := checkFrame(text, 9, want, textTol, true); err == nil {
		t.Fatal("text frame off in the fourth digit accepted")
	}
}

func TestGenerationMatcher(t *testing.T) {
	g0 := goodDenseModel()
	g1 := perturbed(g0)
	x := generate(smokeSizes("fit"), 7).points[0]
	gm := generationMatcher{gens: [][]float64{g0, g1}}
	for _, w := range [][]float64{g0, g0, g1, g1} {
		if err := gm.match(x, sigmoid(dot(w, x))); err != nil {
			t.Fatalf("in-order generations rejected: %v", err)
		}
	}
	if err := gm.match(x, sigmoid(dot(g0, x))); err == nil {
		t.Fatal("a score from an older generation accepted after a newer one")
	}
	gm = generationMatcher{gens: [][]float64{g0, g1}}
	if err := gm.match(x, sigmoid(dot(g0, x))+1e-7); err == nil {
		t.Fatal("a score matching no generation accepted")
	}
}

func TestLedgerWrongAnswerMakesRunIncorrect(t *testing.T) {
	var l ledger
	if l.result(nil).Correct {
		t.Fatal("a run that attempted nothing is correct")
	}
	want := []float64{0.5}
	l.record("point", checkFrame(server.Frame{ID: 9, Scores: want}, 9, want, scoreTol, false))
	l.record("point", checkFrame(server.Frame{ID: 9, Err: "busy: queue full"}, 9, want, scoreTol, false))
	if res := l.result(nil); !res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("an error answer: correct=%v attempted=%d failed=%d, want true 2 1",
			res.Correct, res.Attempted, res.Failed)
	}
	l.record("point", checkFrame(server.Frame{ID: 9, Scores: want}, 8, want, scoreTol, false))
	if res := l.result(nil); res.Correct || res.Failed != 2 {
		t.Fatalf("a wrong id: correct=%v failed=%d, want false 2", res.Correct, res.Failed)
	}
	l = ledger{}
	l.record("train", checkDenseTrain(nil, model{w: []float64{1}}, "no loss here"))
	if l.result(nil).Correct {
		t.Fatal("a TRAIN whose output fails its check leaves the run correct")
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func metricNames(m map[string]metric) []string {
	var out []string
	for n, v := range m {
		if math.IsNaN(v.Value) {
			out = append(out, n+"=NaN")
			continue
		}
		out = append(out, n)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s metrics:\n got  %v\n want %v", what, got, want)
	}
}

// TestSmoke runs all three phases to their end on shrunken inputs, on
// both workloads and traced, and requires every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	e2e, layer := benchmarkNames(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"fit", false}, {"spill", false}, {"spill", true}} {
		t.Run(fmt.Sprintf("%s/trace=%v", tc.workload, tc.trace), func(t *testing.T) {
			res, err := run(config{workload: tc.workload, seed: 3, seconds: 2, smoke: true, trace: tc.trace})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if tc.trace {
				want = layer
			}
			sameNames(t, "result", metricNames(res.Metrics), append([]string(nil), want...))
		})
	}
}
