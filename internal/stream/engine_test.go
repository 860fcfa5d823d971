package stream

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/sample"
)

func init() {
	ops.Register("stream_test_failing_mapper", ops.CategoryMapper, "test",
		func(p ops.Params) (ops.OP, error) { return failingMapper{}, nil })
}

type failingMapper struct{}

func (failingMapper) Name() string { return "stream_test_failing_mapper" }
func (failingMapper) Process(s *sample.Sample) error {
	return fmt.Errorf("intentional failure")
}

// corpusWithDupes builds a deterministic corpus salted with exact and
// cross-shard duplicates, and saves it as JSONL.
func corpusWithDupes(t *testing.T, docs int) (string, *dataset.Dataset) {
	t.Helper()
	base, err := format.Load(fmt.Sprintf("hub:web-en?docs=%d&seed=11", docs))
	if err != nil {
		t.Fatal(err)
	}
	var samples []*sample.Sample
	for i, s := range base.Samples {
		samples = append(samples, s)
		if i%7 == 0 { // exact duplicate far away, to cross shard boundaries
			dup := s.Clone()
			dup.Meta = dup.Meta.Set("dup_of", i)
			samples = append(samples, dup)
		}
	}
	d := dataset.New(samples)
	path := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	return path, d
}

const equivalenceRecipe = `
project_name: stream-test
use_cache: false
op_fusion: true
process:
  - clean_links_mapper:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
  - stopwords_filter:
      min_ratio: 0.01
  - document_deduplicator:
  - text_length_filter:
      min_len: 20
`

func mustRecipe(t *testing.T, yaml string) *config.Recipe {
	t.Helper()
	r, err := config.ParseRecipe(yaml)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sampleLines renders a dataset as one canonical JSON line per sample.
func sampleLines(t *testing.T, d *dataset.Dataset) []string {
	t.Helper()
	lines := make([]string, d.Len())
	for i, s := range d.Samples {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	return lines
}

func runBatch(t *testing.T, recipeYAML, input string) *dataset.Dataset {
	t.Helper()
	r := mustRecipe(t, recipeYAML)
	r.WorkDir = t.TempDir()
	d, err := format.Load(input)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := exec.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runStream(t *testing.T, recipeYAML, input string, opts Options) (*dataset.Dataset, *Report) {
	t.Helper()
	r := mustRecipe(t, recipeYAML)
	r.WorkDir = t.TempDir()
	eng, err := New(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(input, eng.shardSize)
	if err != nil {
		t.Fatal(err)
	}
	var sink CollectSink
	rep, err := eng.Run(src, &sink)
	if err != nil {
		t.Fatal(err)
	}
	return sink.Dataset(), rep
}

// TestStreamMatchesBatch is the acceptance gate: across shard sizes and
// worker counts, the streaming engine must keep exactly the samples the
// batch executor keeps — same order, same text, same meta, same stats.
func TestStreamMatchesBatch(t *testing.T) {
	input, _ := corpusWithDupes(t, 150)
	want := sampleLines(t, runBatch(t, equivalenceRecipe, input))
	if len(want) == 0 {
		t.Fatal("batch run kept nothing; test corpus too aggressive")
	}
	for _, shardSize := range []int{1, 7, 32, 1000} {
		for _, np := range []int{1, 4} {
			name := fmt.Sprintf("shard%d-np%d", shardSize, np)
			t.Run(name, func(t *testing.T) {
				yaml := equivalenceRecipe + fmt.Sprintf("np: %d\n", np)
				got, rep := runStream(t, yaml, input, Options{ShardSize: shardSize})
				gotLines := sampleLines(t, got)
				if len(gotLines) != len(want) {
					t.Fatalf("stream kept %d samples, batch kept %d", len(gotLines), len(want))
				}
				for i := range want {
					if gotLines[i] != want[i] {
						t.Fatalf("sample %d differs:\nstream: %s\nbatch:  %s", i, gotLines[i], want[i])
					}
				}
				if rep.OutCount != len(want) {
					t.Errorf("report OutCount = %d, want %d", rep.OutCount, len(want))
				}
				if rep.PlanSize == 0 || len(rep.OpStats) != rep.PlanSize {
					t.Errorf("report has %d op stats for plan size %d", len(rep.OpStats), rep.PlanSize)
				}
			})
		}
	}
}

// TestStreamMatchesBatchWithBarrier checks the merge-and-reshard path:
// a similarity deduplicator mid-plan forces a declared barrier.
func TestStreamMatchesBatchWithBarrier(t *testing.T) {
	input, _ := corpusWithDupes(t, 120)
	recipe := `
project_name: stream-barrier-test
use_cache: false
op_fusion: true
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 3
  - document_minhash_deduplicator:
      jaccard_threshold: 0.8
  - text_length_filter:
      min_len: 10
`
	want := sampleLines(t, runBatch(t, recipe, input))
	if len(want) == 0 {
		t.Fatal("batch run kept nothing")
	}
	got, rep := runStream(t, recipe, input, Options{ShardSize: 16})
	gotLines := sampleLines(t, got)
	if len(gotLines) != len(want) {
		t.Fatalf("stream kept %d samples, batch kept %d", len(gotLines), len(want))
	}
	for i := range want {
		if gotLines[i] != want[i] {
			t.Fatalf("sample %d differs after barrier:\nstream: %s\nbatch:  %s", i, gotLines[i], want[i])
		}
	}
	// The minhash op must have executed exactly once, over the merged set.
	found := false
	for _, st := range rep.OpStats {
		if st.Name == "document_minhash_deduplicator" {
			found = true
			if st.InCount == 0 {
				t.Error("barrier op saw no samples")
			}
		}
	}
	if !found {
		t.Error("no op stat recorded for the barrier op")
	}
}

// TestShardCacheResume runs the same stream twice with the cache on: the
// second run must resume every shard from the shard cache and still
// produce identical output.
func TestShardCacheResume(t *testing.T) {
	input, _ := corpusWithDupes(t, 80)
	yaml := `
project_name: stream-cache-test
use_cache: true
op_fusion: true
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 3
  - document_deduplicator:
`
	r := mustRecipe(t, yaml)
	r.WorkDir = t.TempDir()

	run := func() (*dataset.Dataset, *Report) {
		eng, err := New(r, Options{ShardSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(input, 16)
		if err != nil {
			t.Fatal(err)
		}
		var sink CollectSink
		rep, err := eng.Run(src, &sink)
		if err != nil {
			t.Fatal(err)
		}
		return sink.Dataset(), rep
	}

	first, rep1 := run()
	if rep1.ResumedShards != 0 {
		t.Fatalf("cold run resumed %d shards", rep1.ResumedShards)
	}
	second, rep2 := run()
	if rep2.ResumedShards != rep2.ShardCount || rep2.ShardCount == 0 {
		t.Fatalf("warm run resumed %d of %d shards", rep2.ResumedShards, rep2.ShardCount)
	}
	a, b := sampleLines(t, first), sampleLines(t, second)
	if len(a) != len(b) {
		t.Fatalf("warm run kept %d samples, cold kept %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between cold and warm runs", i)
		}
	}
	// Cached shard-local ops must be flagged in the aggregate.
	for _, st := range rep2.OpStats {
		if st.Name == "whitespace_normalization_mapper" && !st.CacheHit {
			t.Error("leading mapper not marked as fully cached on the warm run")
		}
	}
}

// TestStreamFusedMemberAttribution: the aggregated report must attribute
// a fused op's work to its members, summed across every shard.
func TestStreamFusedMemberAttribution(t *testing.T) {
	input, _ := corpusWithDupes(t, 60)
	r := mustRecipe(t, equivalenceRecipe) // word_num + stopwords fuse
	r.WorkDir = t.TempDir()
	eng, err := New(r, Options{ShardSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(input, 16)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(src, DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	var fused *core.OpStat
	for i := range rep.OpStats {
		if len(rep.OpStats[i].Members) > 0 {
			fused = &rep.OpStats[i]
		}
	}
	if fused == nil {
		t.Fatalf("no fused member attribution in report: %+v", rep.OpStats)
	}
	if fused.Members[0].In != fused.InCount {
		t.Errorf("first member saw %d of %d samples", fused.Members[0].In, fused.InCount)
	}
	if last := fused.Members[len(fused.Members)-1]; last.Out != fused.OutCount {
		t.Errorf("last member out = %d, fused out = %d", last.Out, fused.OutCount)
	}
	if !strings.Contains(rep.Summary(), "· ") {
		t.Error("summary does not render member attribution")
	}
}

// TestSplitPhases checks plan segmentation around barriers and index ops
// (capability classification itself is covered in internal/plan).
func TestSplitPhases(t *testing.T) {
	r := mustRecipe(t, `
op_fusion: false
process:
  - whitespace_normalization_mapper:
  - document_deduplicator:
  - text_length_filter:
  - document_minhash_deduplicator:
  - word_num_filter:
`)
	p, err := plan.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	phases := splitPhases(p)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].barrier == nil || phases[0].barrier.Name() != "document_minhash_deduplicator" {
		t.Fatalf("phase 0 barrier = %v", phases[0].barrier)
	}
	if len(phases[0].stages) != 3 { // local(mapper), index(dedup), local(filter)
		t.Fatalf("phase 0 has %d stages, want 3", len(phases[0].stages))
	}
	if phases[0].stages[1].kind != stageIndex {
		t.Fatal("middle stage of phase 0 should be the signature index")
	}
	if phases[1].barrier != nil || len(phases[1].stages) != 1 {
		t.Fatalf("phase 1 malformed: %+v", phases[1])
	}
}

// TestEngineOpError checks a failing op aborts the run with its error
// instead of hanging the pipeline.
func TestEngineOpError(t *testing.T) {
	input, _ := corpusWithDupes(t, 40)
	yaml := `
use_cache: false
process:
  - whitespace_normalization_mapper:
  - stream_test_failing_mapper:
  - document_deduplicator:
`
	r := mustRecipe(t, yaml)
	r.WorkDir = t.TempDir()
	eng, err := New(r, Options{ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(input, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(src, DiscardSink{}); err == nil {
		t.Fatal("expected the failing op's error")
	}
}

// TestNewRejectsRemovedControllerOptions: the runtime controller is
// gone, so its two options fail loudly instead of being ignored.
func TestNewRejectsRemovedControllerOptions(t *testing.T) {
	for name, opts := range map[string]Options{
		"adaptive":    {Adaptive: true},
		"max workers": {MaxWorkers: 4},
	} {
		r := mustRecipe(t, equivalenceRecipe)
		r.WorkDir = t.TempDir()
		_, err := New(r, opts)
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("%s: New error = %v, want one naming the removal", name, err)
		}
	}
}

// TestPassthroughAndEmptyInput: a plan whose ops keep everything is a
// pure copy-through, and an empty source emits nothing without error.
func TestPassthroughAndEmptyInput(t *testing.T) {
	input, orig := corpusWithDupes(t, 30)
	r := mustRecipe(t, "use_cache: false\nprocess:\n  - text_length_filter:\n      min_len: 0\n")
	r.WorkDir = t.TempDir()
	eng, err := New(r, Options{ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(input, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sink CollectSink
	rep, err := eng.Run(src, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Dataset().Len() != orig.Len() {
		t.Fatalf("copy-through kept %d of %d samples", sink.Dataset().Len(), orig.Len())
	}
	if rep.InCount != orig.Len() || rep.OutCount != orig.Len() {
		t.Fatalf("report counts %d -> %d, want %d -> %d", rep.InCount, rep.OutCount, orig.Len(), orig.Len())
	}

	empty, err := NewDatasetSource(dataset.New(nil), 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = eng.Run(empty, &CollectSink{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InCount != 0 || rep.OutCount != 0 || rep.ShardCount != 0 {
		t.Fatalf("empty input produced counts %+v", rep)
	}
}
