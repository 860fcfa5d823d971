package hpo

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sphere has its maximum 0 at (0.7, 0.3); a classic smooth test function.
func sphere(params map[string]float64) float64 {
	dx := params["x"] - 0.7
	dy := params["y"] - 0.3
	return -(dx*dx + dy*dy)
}

var space2D = Space{
	{Name: "x", Min: 0, Max: 1},
	{Name: "y", Min: 0, Max: 1},
}

func TestRandomSearchFindsDecentPoint(t *testing.T) {
	trials := randomSearch(space2D, sphere, 200, 1)
	if len(trials) != 200 {
		t.Fatalf("trials = %d", len(trials))
	}
	best := Best(trials)
	if best.Value < -0.02 {
		t.Fatalf("best = %+v", best)
	}
}

func TestRandomSearchDeterministic(t *testing.T) {
	a := Best(randomSearch(space2D, sphere, 50, 7))
	b := Best(randomSearch(space2D, sphere, 50, 7))
	if a.Value != b.Value {
		t.Fatal("random search not deterministic")
	}
}

func TestTPEBeatsRandomOnSmoothObjective(t *testing.T) {
	budget := 60
	var bestTPE, bestRnd float64 = math.Inf(-1), math.Inf(-1)
	// Average over a few seeds to avoid flakiness.
	for seed := int64(0); seed < 5; seed++ {
		bestTPE += Best(TPE(space2D, sphere, budget, seed)).Value
		bestRnd += Best(randomSearch(space2D, sphere, budget, seed)).Value
	}
	if bestTPE < bestRnd-0.01 {
		t.Fatalf("TPE (%v) should not lose clearly to random (%v)", bestTPE, bestRnd)
	}
}

func TestTPEConvergesNearOptimum(t *testing.T) {
	best := Best(TPE(space2D, sphere, 80, 3))
	if best.Value < -0.01 {
		t.Fatalf("TPE best = %+v", best)
	}
}

func TestIntegerParam(t *testing.T) {
	space := Space{{Name: "n", Min: 1, Max: 10, Integer: true}}
	trials := randomSearch(space, func(p map[string]float64) float64 { return -math.Abs(p["n"] - 5) }, 50, 2)
	for _, tr := range trials {
		if tr.Params["n"] != math.Round(tr.Params["n"]) {
			t.Fatalf("non-integer value: %v", tr.Params["n"])
		}
	}
}

func TestImportanceIdentifiesDominantParam(t *testing.T) {
	// Objective depends only on x: importance must concentrate there.
	objX := func(p map[string]float64) float64 { return p["x"] }
	trials := randomSearch(space2D, objX, 300, 5)
	imp := Importance(space2D, trials)
	if imp["x"] < 0.9 {
		t.Fatalf("importance = %v", imp)
	}
	corr := Correlations(space2D, trials)
	if corr["x"] < 0.95 {
		t.Fatalf("correlation = %v", corr)
	}
	if math.Abs(corr["y"]) > 0.2 {
		t.Fatalf("y correlation = %v", corr["y"])
	}
}

func TestCorrelationsDegenerate(t *testing.T) {
	if got := Correlations(space2D, nil); got["x"] != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Constant objective → zero correlation.
	trials := randomSearch(space2D, func(map[string]float64) float64 { return 1 }, 20, 6)
	corr := Correlations(space2D, trials)
	if corr["x"] != 0 || corr["y"] != 0 {
		t.Fatalf("constant corr = %v", corr)
	}
}

func TestBestEmpty(t *testing.T) {
	b := Best(nil)
	if b.Params != nil || b.Value != 0 {
		t.Fatalf("Best(nil) = %+v", b)
	}
}

func TestRenderAnalysis(t *testing.T) {
	trials := randomSearch(space2D, sphere, 40, 8)
	out := RenderAnalysis(space2D, trials)
	for _, want := range []string{"best value", "importance", "corr", "x", "y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis missing %q:\n%s", want, out)
		}
	}
}

// randomSearch evaluates n uniform draws: the baseline TPE must beat,
// and a trial history for the analysis tests.
func randomSearch(space Space, obj Objective, n int, seed int64) []Trial {
	rng := rand.New(rand.NewSource(seed))
	trials := make([]Trial, 0, n)
	for i := 0; i < n; i++ {
		params := map[string]float64{}
		for _, p := range space {
			params[p.Name] = p.sample(rng)
		}
		trials = append(trials, Trial{Params: params, Value: obj(params)})
	}
	return trials
}
