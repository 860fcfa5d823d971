// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the ablations called out in DESIGN.md. Each
// benchmark reports the headline metric of its experiment through b.Report
// metrics, so `go test -bench=. -benchmem` doubles as the reproduction
// harness (cmd/djbench prints the full tables).
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/format"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/stream"
)

// benchScale keeps benchmark iterations affordable.
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.SourceDocs = 100
	s.FinetunePool = 600
	s.PerfDocs = [3]int{40, 100, 250}
	s.DistDocs = 400
	return s
}

// --- E1: Figure 7 ---

func BenchmarkFig7PretrainCurve(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(s)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Score, "refined@150_score")
	}
}

// --- E2 + E11: Table 2 / Table 9 ---

func BenchmarkTable2Models(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[2].Score, "dj@150_score")
		b.ReportMetric(res.Rows[1].Score, "pythia@300_score")
	}
}

// --- E3: Table 3 ---

func BenchmarkTable3Judging(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].DJWins), "dj_wins_vs_alpaca")
		b.ReportMetric(float64(res.Rows[0].CompWins), "alpaca_wins")
	}
}

// --- E4 + E5: Tables 4 and 5 ---

func BenchmarkTable5Classifiers(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Metrics.F1*100, "gpt3_f1_pct")
		b.ReportMetric(res.Rows[2].Metrics.F1*100, "code_f1_pct")
	}
}

func BenchmarkTable4KeepRatios(b *testing.B) {
	s := benchScale()
	t5, err := experiments.Table5(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(s, t5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].KeepPareto*100, "pareto_keep_pct")
	}
}

// --- E6: Figure 8 (per-system end-to-end benchmarks) ---

func fig8Input(b *testing.B, docs int) (*dataset.Dataset, []string) {
	b.Helper()
	d := corpus.C4(corpus.Options{Docs: docs, Seed: 88})
	texts := make([]string, d.Len())
	for i, s := range d.Samples {
		texts[i] = s.Text
	}
	return d, texts
}

func BenchmarkFig8DataJuicer(b *testing.B) {
	d, _ := fig8Input(b, 300)
	r, err := config.ParseRecipe(baseline.ComparisonRecipeYAML)
	if err != nil {
		b.Fatal(err)
	}
	r.WorkDir = b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := core.NewExecutor(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := exec.Run(d.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RedPajama(b *testing.B) {
	_, texts := fig8Input(b, 300)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RedPajamaRun(texts, dir, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Dolma(b *testing.B) {
	_, texts := fig8Input(b, 300)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.DolmaRun(texts, dir, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Figure 9 (fused vs unfused) ---

func benchFusionRecipe(b *testing.B, fusion bool) {
	b.Helper()
	d := corpus.C4(corpus.Options{Docs: 250, Seed: 99})
	yaml := `
project_name: bench-fusion
use_cache: false
process:
  - word_num_filter:
      min_num: 5
  - word_repetition_filter:
      rep_len: 5
      max_ratio: 0.6
  - stopwords_filter:
      min_ratio: 0.02
  - flagged_words_filter:
      max_ratio: 0.1
  - perplexity_filter:
      max_ppl: 1000000
`
	r, err := config.ParseRecipe(yaml)
	if err != nil {
		b.Fatal(err)
	}
	r.OpFusion = fusion
	r.WorkDir = b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := core.NewExecutor(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := exec.Run(d.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Fused(b *testing.B)   { benchFusionRecipe(b, true) }
func BenchmarkFig9Unfused(b *testing.B) { benchFusionRecipe(b, false) }

// --- E8: Figure 10 ---

func BenchmarkFig10Distributed(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(s)
		if err != nil {
			b.Fatal(err)
		}
		var ray1, ray16 float64
		for _, c := range res.Cells {
			if c.Dataset == "arxiv" && c.Engine == "ray" {
				if c.Nodes == 1 {
					ray1 = float64(c.Total)
				}
				if c.Nodes == 16 {
					ray16 = float64(c.Total)
				}
			}
		}
		b.ReportMetric(ray1/ray16, "ray_speedup_16x")
	}
}

// --- E9 + E10: Tables 7 and 8 ---

func BenchmarkTable7Tokens(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Proportion*100, "top_component_pct")
	}
}

func BenchmarkTable8Census(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: Figure 3 ---

func BenchmarkFig3HPO(b *testing.B) {
	s := benchScale()
	s.SourceDocs = 60
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3HPO(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Best.Value, "best_mix_value")
	}
}

// --- A1: context-sharing ablation ---

func benchContextAblation(b *testing.B, shared bool) {
	b.Helper()
	d := corpus.C4(corpus.Options{Docs: 200, Seed: 77})
	names := []string{"word_num_filter", "word_repetition_filter", "stopwords_filter", "flagged_words_filter"}
	filters := make([]ops.Filter, len(names))
	for i, n := range names {
		op, err := ops.Build(n, nil)
		if err != nil {
			b.Fatal(err)
		}
		filters[i] = op.(ops.Filter)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range d.Samples {
			for _, f := range filters {
				if err := f.ComputeStats(s); err != nil {
					b.Fatal(err)
				}
				if !shared {
					s.ClearContext() // recompute words for every filter
				}
			}
			s.ClearContext()
			s.Stats.Reset()
		}
	}
}

func BenchmarkAblationContextShared(b *testing.B)   { benchContextAblation(b, true) }
func BenchmarkAblationContextUnshared(b *testing.B) { benchContextAblation(b, false) }

// --- A3: typed sample vs generic map rows ---

func BenchmarkAblationRowRepr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		typed, generic, err := experiments.AblationRowRepr(150, 66)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(generic)/float64(typed), "generic_over_typed")
	}
}

// --- micro-benchmarks: operator throughput ---

func benchOneFilter(b *testing.B, name string) {
	b.Helper()
	d := corpus.C4(corpus.Options{Docs: 200, Seed: 44})
	op, err := ops.Build(name, nil)
	if err != nil {
		b.Fatal(err)
	}
	f := op.(ops.Filter)
	var bytes int64
	for _, s := range d.Samples {
		bytes += int64(len(s.Text))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range d.Samples {
			if err := f.ComputeStats(s); err != nil {
				b.Fatal(err)
			}
			f.Keep(s)
			s.ClearContext()
			s.Stats.Reset()
		}
	}
}

func BenchmarkFilterWordNum(b *testing.B)    { benchOneFilter(b, "word_num_filter") }
func BenchmarkFilterStopwords(b *testing.B)  { benchOneFilter(b, "stopwords_filter") }
func BenchmarkFilterCharRep(b *testing.B)    { benchOneFilter(b, "character_repetition_filter") }
func BenchmarkFilterLanguageID(b *testing.B) { benchOneFilter(b, "language_id_score_filter") }
func BenchmarkFilterPerplexity(b *testing.B) { benchOneFilter(b, "perplexity_filter") }

func BenchmarkDedupExact(b *testing.B)   { benchDedup(b, "document_deduplicator") }
func BenchmarkDedupMinhash(b *testing.B) { benchDedup(b, "document_minhash_deduplicator") }
func BenchmarkDedupSimhash(b *testing.B) { benchDedup(b, "document_simhash_deduplicator") }

func benchDedup(b *testing.B, name string) {
	b.Helper()
	d := corpus.Web(corpus.Options{Docs: 300, Seed: 33})
	op, err := ops.Build(name, nil)
	if err != nil {
		b.Fatal(err)
	}
	dd := op.(ops.Deduplicator)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dd.Dedup(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	d := corpus.C4(corpus.Options{Docs: 400, Seed: 22})
	r, err := config.BuiltinRecipe("aggressive-clean")
	if err != nil {
		b.Fatal(err)
	}
	r.UseCache = false
	r.WorkDir = b.TempDir()
	b.SetBytes(d.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := core.NewExecutor(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := exec.Run(d.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity: the benchmark file compiles against a fmt-using helper.
var _ = fmt.Sprintf

// --- Execution backends: batch vs shard-pipelined streaming ---
//
// The streaming engine's claim is architectural: peak memory stays
// O(shards in flight) as the corpus grows, while the batch executor's
// peak scales linearly with corpus size (it holds everything). Each
// benchmark reports peak_heap_MB alongside throughput so
// `go test -bench 'Exec(Batch|Stream)' -benchtime 1x` renders the
// comparison across corpus sizes.

const benchStreamRecipe = `
project_name: backend-bench
use_cache: false
op_fusion: true
process:
  - clean_links_mapper:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
  - document_deduplicator:
`

var benchCorpusFiles = map[int]string{}

// benchCorpusFile materializes a hub corpus of the given size as a JSONL
// file once per process, outside benchmark timing.
func benchCorpusFile(b *testing.B, docs int) string {
	b.Helper()
	if path, ok := benchCorpusFiles[docs]; ok {
		return path
	}
	d := corpus.Web(corpus.Options{Docs: docs, Seed: 77})
	dir, err := os.MkdirTemp("", "djbench")
	if err != nil {
		b.Fatal(err)
	}
	path := fmt.Sprintf("%s/corpus-%d.jsonl", dir, docs)
	if err := d.SaveJSONL(path); err != nil {
		b.Fatal(err)
	}
	benchCorpusFiles[docs] = path
	return path
}

// trackPeakHeap samples the live heap until stopped and reports the
// maximum observed, in bytes.
func trackPeakHeap() (stop func() uint64) {
	var (
		peak uint64
		quit = make(chan struct{})
		done = make(chan struct{})
	)
	runtime.GC()
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-quit:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		return peak
	}
}

var backendBenchSizes = []int{500, 2000, 8000}

func BenchmarkExecBatch(b *testing.B) {
	for _, docs := range backendBenchSizes {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			path := benchCorpusFile(b, docs)
			r, err := config.ParseRecipe(benchStreamRecipe)
			if err != nil {
				b.Fatal(err)
			}
			r.WorkDir = b.TempDir()
			var peak uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stop := trackPeakHeap()
				data, err := format.Load(path)
				if err != nil {
					b.Fatal(err)
				}
				exec, err := core.NewExecutor(r)
				if err != nil {
					b.Fatal(err)
				}
				out, _, err := exec.Run(data)
				if err != nil {
					b.Fatal(err)
				}
				if p := stop(); p > peak {
					peak = p
				}
				_ = out
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak_heap_MB")
			b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// benchStream measures one streaming run of benchStreamRecipe over a
// docs-sized corpus: peak heap and throughput.
func benchStream(b *testing.B, docs int, opts stream.Options) {
	b.Helper()
	path := benchCorpusFile(b, docs)
	r, err := config.ParseRecipe(benchStreamRecipe)
	if err != nil {
		b.Fatal(err)
	}
	r.WorkDir = b.TempDir()
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := trackPeakHeap()
		eng, err := stream.New(r, opts)
		if err != nil {
			b.Fatal(err)
		}
		src, err := stream.OpenSource(path, opts.ShardSize)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(src, stream.DiscardSink{}); err != nil {
			b.Fatal(err)
		}
		if p := stop(); p > peak {
			peak = p
		}
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak_heap_MB")
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

func BenchmarkExecStream(b *testing.B) {
	for _, docs := range backendBenchSizes {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			benchStream(b, docs, stream.Options{ShardSize: 256})
		})
	}
}

// planSkewRecipe is a skewed-selectivity workload for the planner
// benchmark: by static cost hints the cheap unselective character
// filters run first and the word_num filter (hint 2, tied with
// character_repetition but later in the recipe) runs near the end — yet
// on this corpus word_num drops ~90% of the documents. The measured-cost
// plan learns that (cost × selectivity) and moves it to the front, so
// every later filter scans a tenth of the data.
const planSkewRecipe = `
project_name: plan-bench
use_cache: false
op_fusion: true
process:
  - special_characters_filter:
      max_ratio: 0.9
  - character_repetition_filter:
      rep_len: 3
      max_ratio: 0.95
  - word_num_filter:
      min_num: 180
`

// BenchmarkPlannedVsStatic compares measured-cost ordering (profiles
// persisted by a priming run) against static CostHint ordering on the
// skewed-selectivity recipe above. BENCH_plan.json records one captured
// comparison.
func BenchmarkPlannedVsStatic(b *testing.B) {
	for _, mode := range []struct {
		name     string
		profiled bool
	}{
		{"static", false},
		{"planned", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			const docs = 4000
			path := benchCorpusFile(b, docs)
			r, err := config.ParseRecipe(planSkewRecipe)
			if err != nil {
				b.Fatal(err)
			}
			r.NP = 1 // isolate plan order from scheduling noise
			r.UseProfiles = mode.profiled
			r.WorkDir = b.TempDir()
			if mode.profiled {
				// Priming run: persist measured profiles so the timed
				// executors plan from them.
				data, err := format.Load(path)
				if err != nil {
					b.Fatal(err)
				}
				prime, err := core.NewExecutor(r)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := prime.Run(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := format.Load(path)
				if err != nil {
					b.Fatal(err)
				}
				exec, err := core.NewExecutor(r)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := exec.Run(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}
