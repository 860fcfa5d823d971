package experiments

import (
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sample"
)

// Fig8Cell is one (dataset, system, np) measurement.
type Fig8Cell struct {
	Dataset  string
	System   string
	NP       int
	Elapsed  time.Duration
	PeakHeap uint64
	Kept     int
}

// Fig8Result reproduces the end-to-end system comparison.
type Fig8Result struct {
	Cells  []Fig8Cell
	Render string
}

// fig8Datasets builds the three comparison workloads (Books-, arXiv- and
// C4-like, mirroring the paper's choices).
func fig8Datasets(s Scale) map[string]*dataset.Dataset {
	return map[string]*dataset.Dataset{
		"books": rawSource("books", s.PerfDocs[0], s.Seed+91),
		"arxiv": rawSource("arxiv", s.PerfDocs[1], s.Seed+92),
		"c4":    rawSource("c4", s.PerfDocs[2], s.Seed+93),
	}
}

// Fig8 reproduces Figure 8: wall-clock time and memory of Data-Juicer vs
// the RedPajama-like and Dolma-like baselines, across worker counts.
// Expected shape: Data-Juicer needs less time and less memory on every
// dataset (the baselines recompute word splits per op, copy rows, and
// round-trip through disk).
func Fig8(s Scale, nps []int) (*Fig8Result, error) {
	if len(nps) == 0 {
		nps = []int{1, 2, 4}
	}
	datasets := fig8Datasets(s)
	res := &Fig8Result{}

	// measure times fn with min-of-3 repeats (robust against scheduler
	// noise), then samples memory in one separate untimed pass.
	measure := func(run func() (int, error)) (time.Duration, uint64, int, error) {
		var best time.Duration
		var kept int
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			k, err := run()
			if err != nil {
				return 0, 0, 0, err
			}
			el := time.Since(start)
			if best == 0 || el < best {
				best = el
			}
			kept = k
		}
		var memErr error
		mem := baseline.TrackMemory(2*time.Millisecond, func() {
			if _, err := run(); err != nil {
				memErr = err
			}
		})
		if memErr != nil {
			return 0, 0, 0, memErr
		}
		return best, mem.PeakHeap, kept, nil
	}

	for _, name := range []string{"books", "arxiv", "c4"} {
		d := datasets[name]
		texts := make([]string, d.Len())
		for i, smp := range d.Samples {
			texts[i] = smp.Text
		}
		for _, np := range nps {
			// Data-Juicer.
			workDir, err := os.MkdirTemp("", "dj-fig8-*")
			if err != nil {
				return nil, err
			}
			elapsed, peak, kept, err := measure(func() (int, error) {
				r, err := config.ParseRecipe(baseline.ComparisonRecipeYAML)
				if err != nil {
					return 0, err
				}
				r.WorkDir = workDir
				r.NP = np
				exec, err := core.NewExecutor(r)
				if err != nil {
					return 0, err
				}
				out, _, err := exec.Run(d.Clone())
				if err != nil {
					return 0, err
				}
				return out.Len(), nil
			})
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Dataset: name, System: "Data-Juicer", NP: np,
				Elapsed: elapsed, PeakHeap: peak, Kept: kept,
			})
			os.RemoveAll(workDir)

			// RedPajama-like.
			rpDir, _ := os.MkdirTemp("", "dj-rp-*")
			elapsed, peak, kept, err = measure(func() (int, error) {
				out, err := baseline.RedPajamaRun(texts, rpDir, np)
				return len(out), err
			})
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Dataset: name, System: "RedPajama", NP: np,
				Elapsed: elapsed, PeakHeap: peak, Kept: kept,
			})
			os.RemoveAll(rpDir)

			// Dolma-like.
			dolDir, _ := os.MkdirTemp("", "dj-dolma-*")
			elapsed, peak, kept, err = measure(func() (int, error) {
				out, err := baseline.DolmaRun(texts, dolDir, 4, np)
				return len(out), err
			})
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Dataset: name, System: "Dolma", NP: np,
				Elapsed: elapsed, PeakHeap: peak, Kept: kept,
			})
			os.RemoveAll(dolDir)
		}
	}

	var rows [][]string
	for _, c := range res.Cells {
		rows = append(rows, []string{
			c.Dataset, c.System, fmt.Sprint(c.NP),
			c.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f MB", float64(c.PeakHeap)/(1<<20)),
			fmt.Sprint(c.Kept),
		})
	}
	res.Render = "Figure 8 — end-to-end time and memory vs baselines\n" +
		table([]string{"dataset", "system", "np", "time", "peak heap", "kept"}, rows)
	return res, nil
}

// fig9RecipeYAML is the Figure 9 workload: 5 Mappers, 8 Filters (5 of
// them fusible word/line-context users), 1 Deduplicator.
const fig9RecipeYAML = `
project_name: fig9
use_cache: false
process:
  - fix_unicode_mapper:
  - clean_email_mapper:
  - clean_links_mapper:
  - remove_long_words_mapper:
  - whitespace_normalization_mapper:
  - alphanumeric_filter:
      min_ratio: 0.2
  - special_characters_filter:
      max_ratio: 0.4
  - text_length_filter:
      min_len: 10
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
  - document_deduplicator:
`

// fig9FusibleYAML isolates the five fusible filters, for the
// "fusible OPs only" series of Figure 9.
const fig9FusibleYAML = `
project_name: fig9-fusible
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

// Fig9Row is one dataset-size measurement. The durations are process
// CPU time, user plus system, summed over the np workers.
type Fig9Row struct {
	Label          string
	NP             int
	AllUnfused     time.Duration
	AllFused       time.Duration
	AllPlanned     time.Duration // fused + measured-cost reordering from the profile sidecar
	FusibleUnfused time.Duration
	FusibleFused   time.Duration
}

// fig9Repeats is how many timed runs each Fig9 arm takes the median of.
const fig9Repeats = 11

// processCPU returns the CPU time, user plus system, this process has
// used so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// Fig9Result reproduces the OP-fusion experiment.
type Fig9Result struct {
	Rows   []Fig9Row
	Render string
}

// Fig9 reproduces Figure 9 through the unified planner: total pipeline
// CPU time and fusible-only CPU time, with and without OP fusion, across dataset
// sizes — plus a third series where the planner orders the commutative
// filter groups from measured cost × selectivity (the profile sidecar a
// priming run persisted) instead of static hints. Expected shape: fusion
// saves a double-digit percentage of total time and a larger share of
// the fusible OPs' own time; the measured-cost plan is no slower than
// the static-hint plan.
func Fig9(s Scale, np int) (*Fig9Result, error) {
	if np <= 0 {
		np = 4
	}
	sizes := []struct {
		label string
		docs  int
	}{
		{"small", s.PerfDocs[0]},
		{"medium", s.PerfDocs[1]},
		{"large", s.PerfDocs[2]},
	}
	// arm is one timed configuration of a row. With profiled=false
	// planning is pinned to static hints; with profiled=true a priming
	// run persists measured profiles into a fresh work dir and every
	// timed executor replans from them.
	type arm struct {
		yaml             string
		fusion, profiled bool
		dst              *time.Duration
		recipe           *config.Recipe
		samples          []time.Duration
	}
	// An arm's time is the median process CPU time of fig9Repeats runs,
	// and the repeats go round-robin across the row's arms. CPU time
	// counts the work an arm does; wall clock on a shared machine also
	// counts whatever a neighbouring process takes from the cores, which
	// at millisecond scale buries the difference fusion makes. Going
	// round-robin spreads what load remains (cache and memory-bandwidth
	// contention) over every arm alike (the shape, not a single sample,
	// is the result).
	planDir, err := os.MkdirTemp("", "dj-fig9-planned-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(planDir)
	prepare := func(a *arm, d *dataset.Dataset) error {
		r, err := config.ParseRecipe(a.yaml)
		if err != nil {
			return err
		}
		r.UseCache = false
		r.OpFusion = a.fusion
		r.UseProfiles = a.profiled
		r.NP = np
		r.WorkDir = os.TempDir()
		if a.profiled {
			if r.WorkDir, err = os.MkdirTemp(planDir, "row-*"); err != nil {
				return err
			}
			prime, err := core.NewExecutor(r)
			if err != nil {
				return err
			}
			if _, _, err := prime.Run(d.Clone()); err != nil {
				return err
			}
		}
		a.recipe = r
		return nil
	}
	timeOnce := func(a *arm, d *dataset.Dataset) error {
		exec, err := core.NewExecutor(a.recipe)
		if err != nil {
			return err
		}
		start, err := processCPU()
		if err != nil {
			return err
		}
		if _, _, err := exec.Run(d.Clone()); err != nil {
			return err
		}
		end, err := processCPU()
		if err != nil {
			return err
		}
		a.samples = append(a.samples, end-start)
		return nil
	}
	res := &Fig9Result{}
	for _, size := range sizes {
		base := rawSource("c4", size.docs, s.Seed+95)
		row := Fig9Row{Label: size.label, NP: np}
		arms := []*arm{
			{yaml: fig9RecipeYAML, dst: &row.AllUnfused},
			{yaml: fig9RecipeYAML, fusion: true, dst: &row.AllFused},
			{yaml: fig9RecipeYAML, fusion: true, profiled: true, dst: &row.AllPlanned},
			{yaml: fig9FusibleYAML, dst: &row.FusibleUnfused},
			{yaml: fig9FusibleYAML, fusion: true, dst: &row.FusibleFused},
		}
		for _, a := range arms {
			if err := prepare(a, base); err != nil {
				return nil, err
			}
		}
		for rep := 0; rep < fig9Repeats; rep++ {
			for _, a := range arms {
				if err := timeOnce(a, base); err != nil {
					return nil, err
				}
			}
		}
		for _, a := range arms {
			sort.Slice(a.samples, func(i, j int) bool { return a.samples[i] < a.samples[j] })
			*a.dst = a.samples[len(a.samples)/2]
		}
		res.Rows = append(res.Rows, row)
	}
	var rows [][]string
	for _, r := range res.Rows {
		savedAll := 100 * (1 - float64(r.AllFused)/float64(r.AllUnfused))
		savedPlanned := 100 * (1 - float64(r.AllPlanned)/float64(r.AllUnfused))
		savedFus := 100 * (1 - float64(r.FusibleFused)/float64(r.FusibleUnfused))
		rows = append(rows, []string{
			r.Label, fmt.Sprint(r.NP),
			r.AllUnfused.Round(time.Millisecond).String(),
			r.AllFused.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", savedAll),
			r.AllPlanned.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", savedPlanned),
			r.FusibleUnfused.Round(time.Millisecond).String(),
			r.FusibleFused.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", savedFus),
		})
	}
	res.Render = "Figure 9 — OP fusion and reordering effect (unified planner)\n" +
		table([]string{"dataset", "np", "all unfused cpu", "all fused cpu", "saved", "all planned cpu", "saved", "fusible unfused cpu", "fusible fused cpu", "saved"}, rows)
	return res, nil
}

// AblationRowRepr compares the typed Sample representation against
// generic map rows for one mapper+filter pass (the A3 ablation).
func AblationRowRepr(docs int, seed int64) (typed, generic time.Duration, err error) {
	d := rawSource("c4", docs, seed)
	texts := make([]string, d.Len())
	for i, smp := range d.Samples {
		texts[i] = smp.Text
	}
	r, err := config.ParseRecipe(baseline.ComparisonRecipeYAML)
	if err != nil {
		return 0, 0, err
	}
	r.WorkDir = os.TempDir()
	r.UseProfiles = false // single timed run; keep the shared tmp dir clean
	r.NP = 1
	exec, err := core.NewExecutor(r)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if _, _, err := exec.Run(d.Clone()); err != nil {
		return 0, 0, err
	}
	typed = time.Since(start)

	dir, err := os.MkdirTemp("", "dj-ablation-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	start = time.Now()
	if _, err := baseline.RedPajamaRun(texts, dir, 1); err != nil {
		return 0, 0, err
	}
	generic = time.Since(start)
	return typed, generic, nil
}

var _ = sample.New // keep the typed-sample package linked for the ablation docs
