package experiments

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sample"
)

// Fig8Cell is one (dataset, system, np) measurement. Elapsed is process
// CPU time, user plus system, summed over the np workers.
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

// fig8Arm is one system's run over one (dataset, np) cell.
type fig8Arm struct {
	system  string
	run     func() (kept int, err error)
	samples []time.Duration
	peak    uint64
	kept    int
}

// measureFig8Arms times the arms of one cell the way Fig9 times its
// arms: the median process CPU time of cpuRepeats runs, the repeats
// round-robin across the arms, and the previous run's garbage collected
// outside each timed window. Wall clock on a shared machine also counts
// what neighbouring processes take from the cores, which at millisecond
// scale can flip the systems' order. Peak heap comes from one separate
// untimed pass per arm, made first.
func measureFig8Arms(arms []*fig8Arm) error {
	for _, a := range arms {
		var runErr error
		mem := baseline.TrackMemory(2*time.Millisecond, func() {
			a.kept, runErr = a.run()
		})
		if runErr != nil {
			return runErr
		}
		a.peak = mem.PeakHeap
	}
	for rep := 0; rep < cpuRepeats; rep++ {
		for _, a := range arms {
			dur, err := cpuTime(func() (err error) {
				a.kept, err = a.run()
				return err
			})
			if err != nil {
				return err
			}
			a.samples = append(a.samples, dur)
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: CPU time and memory of Data-Juicer vs the
// RedPajama-like and Dolma-like baselines, across worker counts.
// Expected shape: Data-Juicer needs less time and less memory on every
// dataset (the baselines recompute word splits per op, copy rows, and
// round-trip through disk).
func Fig8(s Scale, nps []int) (*Fig8Result, error) {
	if len(nps) == 0 {
		nps = []int{1, 2, 4}
	}
	datasets := fig8Datasets(s)
	res := &Fig8Result{}
	recipe, err := config.ParseRecipe(baseline.ComparisonRecipeYAML)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"books", "arxiv", "c4"} {
		d := datasets[name]
		texts := make([]string, d.Len())
		for i, smp := range d.Samples {
			texts[i] = smp.Text
		}
		for _, np := range nps {
			cells, err := runFig8Cell(recipe, d, texts, np)
			if err != nil {
				return nil, err
			}
			for _, a := range cells {
				res.Cells = append(res.Cells, Fig8Cell{
					Dataset: name, System: a.system, NP: np,
					Elapsed: median(a.samples), PeakHeap: a.peak, Kept: a.kept,
				})
			}
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
	res.Render = "Figure 8 — end-to-end CPU time and memory vs baselines\n" +
		table([]string{"dataset", "system", "np", "cpu", "peak heap", "kept"}, rows)
	return res, nil
}

// runFig8Cell measures Data-Juicer and both baselines on one dataset at one
// worker count, each system in its own scratch directory.
func runFig8Cell(recipe *config.Recipe, d *dataset.Dataset, texts []string, np int) ([]*fig8Arm, error) {
	var dirs [3]string
	for i, pattern := range []string{"dj-fig8-*", "dj-rp-*", "dj-dolma-*"} {
		dir, err := os.MkdirTemp("", pattern)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		dirs[i] = dir
	}
	r := *recipe
	r.WorkDir = dirs[0]
	r.NP = np
	arms := []*fig8Arm{
		{system: "Data-Juicer", run: func() (int, error) {
			exec, err := core.NewExecutor(&r)
			if err != nil {
				return 0, err
			}
			out, _, err := exec.Run(d.Clone())
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}},
		{system: "RedPajama", run: func() (int, error) {
			out, err := baseline.RedPajamaRun(texts, dirs[1], np)
			return len(out), err
		}},
		{system: "Dolma", run: func() (int, error) {
			out, err := baseline.DolmaRun(texts, dirs[2], 4, np)
			return len(out), err
		}},
	}
	return arms, measureFig8Arms(arms)
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

// cpuRepeats is how many timed runs each Fig8 and Fig9 arm takes the
// median of.
const cpuRepeats = 11

// processCPU returns the CPU time, user plus system, this process has
// used so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTime runs fn and returns the process CPU time it took. The previous
// run's garbage is collected first, outside the timed window: otherwise
// the background GC it triggers is charged to this run, and in a
// round-robin the arm after the most wasteful one pays for it.
func cpuTime(fn func() error) (time.Duration, error) {
	runtime.GC()
	start, err := processCPU()
	if err != nil {
		return 0, err
	}
	if err := fn(); err != nil {
		return 0, err
	}
	end, err := processCPU()
	if err != nil {
		return 0, err
	}
	return end - start, nil
}

// median returns the middle sample, sorting samples in place.
func median(samples []time.Duration) time.Duration {
	slices.Sort(samples)
	return samples[len(samples)/2]
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
	// An arm's time is the median process CPU time of cpuRepeats runs,
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
		dur, err := cpuTime(func() error {
			_, _, err := exec.Run(d.Clone())
			return err
		})
		if err != nil {
			return err
		}
		a.samples = append(a.samples, dur)
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
		for rep := 0; rep < cpuRepeats; rep++ {
			for _, a := range arms {
				if err := timeOnce(a, base); err != nil {
					return nil, err
				}
			}
		}
		for _, a := range arms {
			*a.dst = median(a.samples)
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
