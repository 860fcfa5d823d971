// Integration tests: whole-system flows crossing package boundaries —
// every built-in recipe end-to-end on its hub dataset, determinism under
// varying parallelism, cache/checkpoint interplay with real recipes, and
// the full refine → train → evaluate feedback loop.
package repro_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/llm"
	_ "repro/internal/ops/all"
)

// TestEveryBuiltinRecipeEndToEnd runs each shipped recipe against its hub
// dataset (or a generic one) and checks basic sanity: it executes without
// error and does not drop everything unless the data deserves it.
func TestEveryBuiltinRecipeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fallbackInput := map[string]string{
		"minimal-clean":    "hub:c4?docs=80&seed=5",
		"aggressive-clean": "hub:web-en?docs=120&seed=5",
		"dedup-only":       "hub:web-en?docs=80&seed=6",
		"probe-stats":      "hub:c4?docs=40&seed=7",
		"domain-financial": "hub:c4?docs=80&seed=8",
		"domain-reading":   "hub:books?docs=30&seed=9",
	}
	for _, name := range config.BuiltinRecipeNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := config.BuiltinRecipe(name)
			if err != nil {
				t.Fatal(err)
			}
			input := r.DatasetSpec()
			if input == "" {
				input = fallbackInput[name]
			} else if !strings.Contains(input, "?") {
				input += "?docs=120&seed=5"
			}
			if input == "" {
				t.Fatalf("no input for recipe %s", name)
			}
			r.UseCache = false
			r.WorkDir = t.TempDir()
			data, err := format.Load(input)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := core.NewExecutor(r)
			if err != nil {
				t.Fatal(err)
			}
			out, report, err := exec.Run(data)
			if err != nil {
				t.Fatal(err)
			}
			if report.PlanSize == 0 {
				t.Fatal("empty plan")
			}
			if out.Len() == 0 {
				t.Fatalf("recipe %s dropped every sample", name)
			}
			t.Logf("%s: %d -> %d samples, %d planned ops, %s",
				name, data.Len(), out.Len(), report.PlanSize, report.Total.Round(1e6))
		})
	}
}

// TestPipelineOutputIndependentOfParallelism is the core determinism
// property: for a fixed recipe and input, the processed dataset is
// byte-identical regardless of worker count or fusion setting.
func TestPipelineOutputIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := config.BuiltinRecipe("aggressive-clean")
	if err != nil {
		t.Fatal(err)
	}
	run := func(np int, fusion bool) string {
		rc, _ := config.BuiltinRecipe("aggressive-clean")
		rc.UseCache = false
		rc.NP = np
		rc.OpFusion = fusion
		rc.WorkDir = t.TempDir()
		data, err := format.Load("hub:web-en?docs=200&seed=17")
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.NewExecutor(rc)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := exec.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		return out.Fingerprint()
	}
	_ = r
	ref := run(1, true)
	for _, np := range []int{2, 4, 8} {
		if got := run(np, true); got != ref {
			t.Fatalf("np=%d changed the output", np)
		}
	}
	if got := run(4, false); got != ref {
		t.Fatal("disabling fusion changed the output")
	}
}

// TestFeedbackLoopEndToEnd walks the full Figure 5 loop: analyze → refine
// with a recipe → re-analyze → train a reference model on both versions →
// evaluate → the refined model wins.
func TestFeedbackLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	raw, err := format.Load("hub:web-en?docs=500&seed=23")
	if err != nil {
		t.Fatal(err)
	}
	r, err := config.BuiltinRecipe("pretrain-web-en")
	if err != nil {
		t.Fatal(err)
	}
	r.UseCache = false
	r.WorkDir = t.TempDir()
	exec, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := exec.Run(raw.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if refined.Len() == 0 || refined.Len() >= raw.Len() {
		t.Fatalf("refinement kept %d of %d", refined.Len(), raw.Len())
	}

	budget := 25000
	mRaw := llm.Pretrain("raw", "raw web", raw.Clone(), llm.TrainConfig{TokenBudget: budget, Seed: 1})
	mRef := llm.Pretrain("refined", "refined web", refined.Clone(), llm.TrainConfig{TokenBudget: budget, Seed: 1})
	suite := llm.NewSuite(555001)
	suite.Calibrate(mRaw)
	scoreRaw, err := suite.Evaluate(mRaw)
	if err != nil {
		t.Fatal(err)
	}
	scoreRef, err := suite.Evaluate(mRef)
	if err != nil {
		t.Fatal(err)
	}
	if scoreRef.Average <= scoreRaw.Average {
		t.Fatalf("refined model %.2f should beat raw %.2f", scoreRef.Average, scoreRaw.Average)
	}

	// Register the winner as a reference model, as the loop's step (6).
	reg, err := llm.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(llm.Entry{
		Model: mRef.Name, Data: mRef.DataNote,
		TrainTokens: mRef.TrainTokens, Average: scoreRef.Average, PerTask: scoreRef.PerTask,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reg.Lookup("refined"); !ok {
		t.Fatal("reference model not registered")
	}
}

// TestProcessExportReloadRoundTrip checks the processed dataset survives
// the export → reload cycle losslessly, including sharded export.
func TestProcessExportReloadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	data, err := format.Load("hub:cft-en?docs=100&seed=31")
	if err != nil {
		t.Fatal(err)
	}
	r, err := config.BuiltinRecipe("minimal-clean")
	if err != nil {
		t.Fatal(err)
	}
	r.UseCache = false
	r.WorkDir = t.TempDir()
	exec, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := exec.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	single := filepath.Join(dir, "single", "out.jsonl")
	if err := format.Export(out, single); err != nil {
		t.Fatal(err)
	}
	back, err := format.Load(single)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != out.Fingerprint() {
		t.Fatal("export round trip not lossless")
	}
	shardDir := filepath.Join(dir, "shards")
	if _, err := format.ExportSharded(out, filepath.Join(shardDir, "part"), 16); err != nil {
		t.Fatal(err)
	}
	backSharded, err := format.Load(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if backSharded.Fingerprint() != out.Fingerprint() {
		t.Fatal("sharded round trip not lossless")
	}
}

// TestCacheDoesNotChangeOutput: enabling the per-OP cache must be
// behaviourally invisible — identical output with a cold cache, a warm
// cache, and no cache.
func TestCacheDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(useCache bool, workDir string) string {
		r, err := config.BuiltinRecipe("aggressive-clean")
		if err != nil {
			t.Fatal(err)
		}
		r.UseCache = useCache
		r.WorkDir = workDir
		data, err := format.Load("hub:web-en?docs=150&seed=29")
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := exec.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		return out.Fingerprint()
	}
	ref := run(false, t.TempDir())
	dir := t.TempDir()
	if cold := run(true, dir); cold != ref {
		t.Fatal("cold cache changed the output")
	}
	if warm := run(true, dir); warm != ref {
		t.Fatal("warm cache changed the output")
	}
}
