package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/sample"
)

func testRecipe(t *testing.T, yaml string) *config.Recipe {
	t.Helper()
	r, err := config.ParseRecipe(yaml)
	if err != nil {
		t.Fatal(err)
	}
	r.WorkDir = t.TempDir()
	return r
}

func webbyDataset() *dataset.Dataset {
	texts := []string{
		"The committee published a detailed report about the new research program and its goals for the community.",
		"The committee published a detailed report about the new research program and its goals for the community.", // dup
		"BUY NOW!!! $$$ @@@ ### %%% ^^^ &&& *** ((( ))) ___ +++ === ~~~",
		"short",
		"Reading books in the evening is a pleasant habit that many people around the world still enjoy every day.",
		"spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam spam",
		"The weather in the valley was mild and the farmers were pleased with the harvest that the season brought.",
	}
	return dataset.FromTexts(texts)
}

const basicYAML = `
project_name: exec-test
use_cache: false
op_fusion: true
trace: true
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 8
  - stopwords_filter:
      min_ratio: 0.15
  - word_repetition_filter:
      rep_len: 3
      max_ratio: 0.3
  - document_deduplicator:
`

func TestExecutorRunBasic(t *testing.T) {
	r := testRecipe(t, basicYAML)
	e, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out, report, err := e.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	// Survivors: the three long prose sentences (dup removed, spam/short/symbols dropped).
	if out.Len() != 3 {
		for _, s := range out.Samples {
			t.Logf("survivor: %q %v", s.Text, s.Stats)
		}
		t.Fatalf("survivors = %d, want 3", out.Len())
	}
	if report.Total <= 0 || len(report.OpStats) == 0 {
		t.Fatalf("report = %+v", report)
	}
	// Fusion: word filters collapse, so fewer planned ops than recipe ops.
	if report.PlanSize >= 5 {
		t.Fatalf("plan size = %d, fusion did not shrink the plan", report.PlanSize)
	}
}

func TestExecutorFusionMatchesUnfusedOutput(t *testing.T) {
	run := func(fusion bool) *dataset.Dataset {
		r := testRecipe(t, basicYAML)
		r.OpFusion = fusion
		e, err := NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := e.Run(webbyDataset())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(true), run(false)
	if a.Len() != b.Len() {
		t.Fatalf("fusion changed survivor count: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Samples {
		if a.Samples[i].Text != b.Samples[i].Text {
			t.Fatalf("fusion changed sample %d", i)
		}
	}
}

func TestExecutorFusedMemberAttribution(t *testing.T) {
	r := testRecipe(t, basicYAML)
	e, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := e.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	var fused *OpStat
	for i := range rep.OpStats {
		if strings.HasPrefix(rep.OpStats[i].Name, "fused(") {
			fused = &rep.OpStats[i]
		}
	}
	if fused == nil {
		t.Fatalf("no fused op in report: %+v", rep.OpStats)
	}
	if len(fused.Members) != 3 {
		t.Fatalf("fused entry attributes %d members, want 3", len(fused.Members))
	}
	// The first member's Keep chain sees every input sample; the last
	// member's survivors are the fused op's output.
	if fused.Members[0].In != fused.InCount {
		t.Errorf("first member in = %d, fused in = %d", fused.Members[0].In, fused.InCount)
	}
	last := fused.Members[len(fused.Members)-1]
	if last.Out != fused.OutCount {
		t.Errorf("last member out = %d, fused out = %d", last.Out, fused.OutCount)
	}
	for _, m := range fused.Members {
		if m.Samples != fused.InCount {
			t.Errorf("member %s computed stats for %d of %d samples", m.Name, m.Samples, fused.InCount)
		}
		if m.Duration <= 0 {
			t.Errorf("member %s has no attributed duration", m.Name)
		}
	}
}

func TestExecutorSecondRunPlansFromProfiles(t *testing.T) {
	r := testRecipe(t, basicYAML)
	e1, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := e1.Plan().MeasuredOps; n != 0 {
		t.Fatalf("cold plan measured %d ops", n)
	}
	if _, _, err := e1.Run(webbyDataset()); err != nil {
		t.Fatal(err)
	}
	// The run persisted a profile sidecar; a fresh executor over the same
	// recipe must now predict every op (fused members included) from it.
	e2, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	if n, total := e2.Plan().MeasuredOps, len(e2.Plan().Nodes); n != total {
		t.Fatalf("warm plan measured %d of %d ops\n%s", n, total, e2.Plan().Explain())
	}
}

func TestExecutorTracerLineage(t *testing.T) {
	r := testRecipe(t, basicYAML)
	e, _ := NewExecutor(r)
	_, _, err := e.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	events := e.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	var sawFilterDiscard, sawDupPair bool
	for _, ev := range events {
		if ev.Kind == "filter" && len(ev.Discards) > 0 {
			sawFilterDiscard = true
			for _, d := range ev.Discards {
				if len(d.Stats) == 0 {
					t.Fatalf("discard without stats: %+v", d)
				}
			}
		}
		if ev.Kind == "deduplicator" && len(ev.DupPairs) > 0 {
			sawDupPair = true
		}
	}
	if !sawFilterDiscard || !sawDupPair {
		t.Fatalf("lineage incomplete: discard=%v dup=%v", sawFilterDiscard, sawDupPair)
	}
	summary := e.Tracer().Summary()
	if !strings.Contains(summary, "document_deduplicator") {
		t.Fatalf("summary = %s", summary)
	}
}

func TestExecutorCacheReuse(t *testing.T) {
	r := testRecipe(t, basicYAML)
	r.UseCache = true

	e1, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out1, rep1, err := e1.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep1.OpStats {
		if s.CacheHit {
			t.Fatalf("first run must not hit cache: %+v", s)
		}
	}
	// Second run over identical input: every op should come from cache.
	e2, _ := NewExecutor(r)
	out2, rep2, err := e2.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep2.OpStats {
		if !s.CacheHit {
			t.Fatalf("second run missed cache at %s", s.Name)
		}
	}
	if out1.Fingerprint() != out2.Fingerprint() {
		t.Fatal("cached result differs")
	}
}

func TestExecutorCachePrefixReuseAfterTailEdit(t *testing.T) {
	r := testRecipe(t, basicYAML)
	r.UseCache = true
	e1, _ := NewExecutor(r)
	if _, _, err := e1.Run(webbyDataset()); err != nil {
		t.Fatal(err)
	}
	// Change only the final op's params: the prefix must still hit.
	r2 := testRecipe(t, basicYAML)
	r2.WorkDir = r.WorkDir
	r2.UseCache = true
	r2.Process[len(r2.Process)-1].Params = ops.Params{"lowercase": false}
	e2, _ := NewExecutor(r2)
	_, rep, err := e2.Run(webbyDataset())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, s := range rep.OpStats {
		if s.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("prefix cache not reused after tail edit")
	}
	if rep.OpStats[len(rep.OpStats)-1].CacheHit {
		t.Fatal("edited tail op must not hit cache")
	}
}

// failOnceArmed controls the fail_once_filter below: while true, the next
// ComputeStats call fails and disarms. This simulates a transient crash
// (out-of-memory, time limit) between two runs of the *same* recipe, the
// scenario checkpoints exist for. ComputeStats runs on the worker pool, so
// the flag is atomic and disarmed by CompareAndSwap: exactly one call fails.
var failOnceArmed atomic.Bool

type failOnceFilter struct{}

func (failOnceFilter) Name() string       { return "fail_once_filter" }
func (failOnceFilter) StatKeys() []string { return []string{"fail_stat"} }
func (failOnceFilter) ComputeStats(s *sample.Sample) error {
	if failOnceArmed.CompareAndSwap(true, false) {
		return errors.New("injected transient failure")
	}
	s.SetStat("fail_stat", 1)
	return nil
}
func (failOnceFilter) Keep(s *sample.Sample) bool { return true }

func init() {
	ops.Register("fail_once_filter", ops.CategoryFilter, "test", func(p ops.Params) (ops.OP, error) {
		return failOnceFilter{}, nil
	})
}

func TestExecutorCheckpointResumeSameRecipe(t *testing.T) {
	yaml := `
project_name: ckpt-resume
use_cache: false
use_checkpoint: true
op_fusion: false
process:
  - whitespace_normalization_mapper:
  - fail_once_filter:
  - word_num_filter:
      min_num: 2
`
	r := testRecipe(t, yaml)
	ds := dataset.FromTexts([]string{
		"alpha beta gamma", "delta epsilon zeta",
		"eta theta iota", "kappa lambda mu",
		"nu xi omicron", "pi rho sigma",
	})
	failOnceArmed.Store(true)
	e, _ := NewExecutor(r)
	_, _, err := e.Run(ds.Clone())
	if err == nil || !strings.Contains(err.Error(), "injected transient failure") {
		t.Fatalf("expected injected failure, got %v", err)
	}

	// Same recipe, same input, transient condition gone: the second run
	// resumes from the mapper's output, the latest state the failed run
	// committed, instead of starting over.
	e2, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := e2.Run(ds.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// The completed mapper is a cache-hit row; only the remaining ops
	// execute.
	executed := 0
	for _, st := range rep.OpStats {
		if !st.CacheHit {
			executed++
		}
	}
	if executed != 2 || len(rep.OpStats) != 3 || !rep.OpStats[0].CacheHit || rep.OpStats[0].Name != "whitespace_normalization_mapper" {
		t.Fatalf("resumed run: %d executed ops, stats %+v; want the mapper a hit and 2 executed", executed, rep.OpStats)
	}
	if out.Len() != 6 {
		t.Fatalf("survivors = %d", out.Len())
	}
}

func TestExecutorCheckpointForeignRecipeIgnored(t *testing.T) {
	// A checkpoint holds op-chain states, and a chain key hashes the
	// whole prefix: another recipe that shares the failed recipe's first
	// op (same name and params) may resume that op's output, and must end
	// with the export it would produce from scratch; a recipe whose first
	// op's params differ shares no key and resumes nothing.
	yaml := `
project_name: ckpt-a
use_cache: false
use_checkpoint: true
op_fusion: false
process:
  - remove_long_words_mapper:
      max_len: 64
  - fail_once_filter:
`
	ds := dataset.FromTexts([]string{"one two three", "four five six"})
	fail := func(r *config.Recipe) {
		t.Helper()
		failOnceArmed.Store(true)
		e, _ := NewExecutor(r)
		if _, _, err := e.Run(ds.Clone()); err == nil {
			t.Fatal("expected failure")
		}
	}
	run := func(r *config.Recipe) (*dataset.Dataset, *Report) {
		t.Helper()
		e, err := NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := e.Run(ds.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	hits := func(rep *Report) int {
		n := 0
		for _, st := range rep.OpStats {
			if st.CacheHit {
				n++
			}
		}
		return n
	}
	r := testRecipe(t, yaml)

	other := strings.Replace(yaml, "ckpt-a", "ckpt-b", 1) + "  - lowercase_mapper:\n"
	want, _ := run(testRecipe(t, strings.Replace(other, "use_checkpoint: true", "use_checkpoint: false", 1)))
	fail(r)
	r2 := testRecipe(t, other)
	r2.WorkDir = r.WorkDir
	out, rep := run(r2)
	if out.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed export has %d samples, uncheckpointed %d", out.Len(), want.Len())
	}
	if hits(rep) != 1 || !rep.OpStats[0].CacheHit {
		t.Fatalf("shared first op not resumed: %+v", rep.OpStats)
	}

	fail(r)
	r3 := testRecipe(t, strings.Replace(other, "max_len: 64", "max_len: 63", 1))
	r3.WorkDir = r.WorkDir
	if _, rep := run(r3); hits(rep) != 0 {
		t.Fatalf("a recipe whose first op's params differ resumed %d ops", hits(rep))
	}
}

// pinFilterOrder writes the recipe's profile sidecar so that the measured
// cost ranks the named ops in the given order (selectivity 1 each).
func pinFilterOrder(t *testing.T, r *config.Recipe, order ...string) {
	t.Helper()
	set := dist.NewProfileSet()
	for rank, name := range order {
		for _, s := range r.Process {
			if s.Name == name {
				set.Observe(cache.Key("", s.Name, s.Params), s.Name, float64(int(100)<<(4*rank)), 1)
			}
		}
	}
	path := plan.ProfilePath(r)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := dist.SaveProfiles(path, set); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorCheckpointIgnoresReorderedPlan: a checkpoint stores a plan
// index, so a sidecar that reorders a filter group between the crash and
// the resume must not let the resumed run start at that index of the new
// order — word_num_filter would be skipped. The run either starts over
// or resumes into the same export as an uncheckpointed run.
func TestExecutorCheckpointIgnoresReorderedPlan(t *testing.T) {
	yaml := `
project_name: ckpt-reorder
use_cache: false
use_checkpoint: true
op_fusion: true
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min_len: 1
  - fail_once_filter:
  - word_num_filter:
      min_num: 3
`
	texts := []string{
		"alpha beta gamma", "delta", "epsilon zeta eta theta",
		"iota kappa", "lambda mu nu xi", "omicron",
	}
	ref := testRecipe(t, strings.Replace(yaml, "use_checkpoint: true", "use_checkpoint: false", 1))
	re, err := NewExecutor(ref)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := re.Run(dataset.FromTexts(texts))
	if err != nil {
		t.Fatal(err)
	}

	r := testRecipe(t, yaml)
	// Cold order: text_length, fail_once, word_num. The run fails at
	// plan index 2 and checkpoints index 2: mapper and text_length done.
	pinFilterOrder(t, r, "text_length_filter", "fail_once_filter", "word_num_filter")
	e, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Plan().Nodes[2].Op.Name(); got != "fail_once_filter" {
		t.Fatalf("plan index 2 is %s, want fail_once_filter", got)
	}
	failOnceArmed.Store(true)
	if _, _, err := e.Run(dataset.FromTexts(texts)); err == nil {
		t.Fatal("expected injected failure")
	}

	// The new sidecar moves word_num_filter to the front of the group.
	// Resuming at index 2 of this order would run fail_once and
	// text_length only.
	pinFilterOrder(t, r, "word_num_filter", "fail_once_filter", "text_length_filter")
	e2, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Plan().Nodes[1].Op.Name(); got != "word_num_filter" {
		t.Fatalf("reordered plan index 1 is %s, want word_num_filter", got)
	}
	out, _, err := e2.Run(dataset.FromTexts(texts))
	if err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint() != want.Fingerprint() {
		for _, s := range out.Samples {
			t.Logf("survivor: %q", s.Text)
		}
		t.Fatalf("resumed export has %d samples, uncheckpointed %d", out.Len(), want.Len())
	}
}

func TestExecutorRejectsInvalidRecipe(t *testing.T) {
	r := config.Default()
	if _, err := NewExecutor(r); err == nil {
		t.Fatal("empty recipe accepted")
	}
	r2 := config.Default()
	r2.Process = []config.OpSpec{{Name: "ghost_op"}}
	if _, err := NewExecutor(r2); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestExecutorLargeParallelRun(t *testing.T) {
	texts := make([]string, 500)
	for i := range texts {
		texts[i] = fmt.Sprintf("document %d contains the usual words that a document about topic %d would contain", i, i%7)
	}
	r := testRecipe(t, `
project_name: parallel
use_cache: false
np: 8
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
  - document_deduplicator:
`)
	e, _ := NewExecutor(r)
	out, _, err := e.Run(dataset.FromTexts(texts))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 500 {
		t.Fatalf("survivors = %d", out.Len())
	}
}

func TestExecutorContextClearedBetweenOps(t *testing.T) {
	r := testRecipe(t, basicYAML)
	e, _ := NewExecutor(r)
	d := webbyDataset()
	if _, _, err := e.Run(d); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.Samples {
		if s.ContextLen() != 0 {
			t.Fatalf("sample %d retains %d context entries", i, s.ContextLen())
		}
	}
}

func TestReportInCountGuardsEmptyStats(t *testing.T) {
	r := &Report{}
	if got := r.InCount(); got != 0 {
		t.Fatalf("empty report InCount = %d, want 0", got)
	}
	r.OpStats = []OpStat{{Name: "x", InCount: 42, OutCount: 40}}
	if got := r.InCount(); got != 42 {
		t.Fatalf("InCount = %d, want 42", got)
	}
}
