package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/plan"
)

// settings is one benchmark invocation's knobs.
type settings struct {
	Seed    int64
	Scale   float64
	Seconds float64 // length of the timed window
	BinDir  string
	Scratch string // removed on exit; every file a run writes is under it
}

// setupReps is how many times set-up is repeated for setup_s; the median
// is reported so one slow file write does not move it.
const setupReps = 3

// prepared is one workload after set-up: inputs on disk, the reference
// export every run must reproduce, and the page cache warm.
type prepared struct {
	w       workload
	dir     string
	recipe  string
	in      corpusFile
	ref     export
	refWall time.Duration
	// template is the work directory one cold run left (resume workload).
	template string
	setup    []float64
}

// prepare sets the workload up. What setup_s times is one set-up as a
// later PR could make it dearer: corpus and recipe written to disk, then
// one untimed warm-up run of the real binary. It is repeated and every
// repetition kept. Before the first, the inputs are written once untimed
// and the reference export computed from them, so lazy one-time costs
// (first file creation, the harness's own heap growth) are paid before the
// clock starts.
func prepare(s settings, w workload, reps int) (*prepared, error) {
	p := &prepared{w: w, dir: filepath.Join(s.Scratch, w.Name)}
	inputs := filepath.Join(p.dir, "in")
	materialise := func() (err error) {
		if err := os.RemoveAll(inputs); err != nil {
			return err
		}
		if err := os.MkdirAll(inputs, 0o755); err != nil {
			return err
		}
		if p.in, err = writeCorpus(w, s.Seed, s.Scale, inputs); err != nil {
			return err
		}
		p.recipe, err = writeRecipe(w, inputs)
		return err
	}
	if err := materialise(); err != nil {
		return nil, err
	}
	if err := p.reference(); err != nil {
		return nil, err
	}
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := materialise(); err != nil {
			return nil, err
		}
		// The warm-up is a cold run: for the resume workload its work
		// directory is what the timed runs resume from.
		p.template = filepath.Join(inputs, "cold-work")
		if _, err := runDJProcess(s.BinDir, w, p.recipe, p.in, p.template, filepath.Join(inputs, "warm-out")); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	return p, nil
}

// reference computes the export every run of the workload must equal, by
// the plainest path the repository has: the in-process batch executor,
// one worker, no cache, no profiles, no fusion, no memory target. It is
// also the single-threaded baseline the speed-up is taken against.
func (p *prepared) reference() error {
	r, err := config.Load(p.recipe)
	if err != nil {
		return err
	}
	out := filepath.Join(p.dir, "ref", "out.jsonl")
	r.DatasetPath, r.ExportPath, r.WorkDir = p.in.Path, out, filepath.Join(p.dir, "ref", "work")
	r.NP, r.UseCache, r.UseProfiles, r.OpFusion, r.Journal = 1, false, false, false, false
	start := time.Now()
	exec, err := core.NewExecutor(r)
	if err != nil {
		return err
	}
	data, err := core.LoadInput(r)
	if err != nil {
		return err
	}
	result, _, err := exec.Run(data)
	if err != nil {
		return err
	}
	if err := format.Export(result, out); err != nil {
		return err
	}
	p.refWall = time.Since(start)
	p.ref, err = digestExport(out, false)
	return err
}

// invoke runs the real binary once over a fresh work directory (for the
// resume workload: a fresh copy of the cold run's) and checks its export.
func (p *prepared) invoke(s settings) (procRun, error) {
	workDir := filepath.Join(p.dir, "work")
	defer os.RemoveAll(workDir)
	if p.w.Resume {
		if err := os.CopyFS(workDir, os.DirFS(p.template)); err != nil {
			return procRun{}, err
		}
	}
	pr, err := runDJProcess(s.BinDir, p.w, p.recipe, p.in, workDir, filepath.Join(p.dir, "out"))
	if err == nil && pr.Export != p.ref {
		err = fmt.Errorf("%s: export %s (%d docs) differs from reference %s (%d docs)",
			p.w.Name, pr.Export.Digest[:12], pr.Export.Docs, p.ref.Digest[:12], p.ref.Docs)
	}
	return pr, err
}

// timed is the samples of one timed window.
type timed struct {
	Wall, CPU, RSS    []float64
	Attempted, Failed int
}

// timedWindow runs the binary back to back, one process at a time, until
// the window is used up. A run that exits non-zero or exports the wrong
// bytes is counted as failed and contributes no sample.
func (p *prepared) timedWindow(s settings, seconds float64) timed {
	var t timed
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for t.Attempted == 0 || time.Now().Before(deadline) {
		pr, err := p.invoke(s)
		t.Attempted++
		if err != nil {
			t.Failed++
			fmt.Fprintln(os.Stderr, "bench:", err)
			continue
		}
		t.Wall = append(t.Wall, pr.Wall.Seconds())
		t.CPU = append(t.CPU, pr.CPU.Seconds())
		t.RSS = append(t.RSS, pr.RSSMB)
	}
	return t
}

// outcome is one workload's result in one tracing mode: what the driver's
// last line reports, plus what the record file keeps beside it.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	Reference export             `json:"-"`
	Samples   map[string]summary `json:"-"`
	TopOp     string             `json:"-"`
	Spans     []span             `json:"-"`
}

// endToEnd measures the workload with tracing off: the real binary, exec
// to exit, for the whole window.
func endToEnd(s settings, w workload) (*outcome, error) {
	p, err := prepare(s, w, setupReps)
	if err != nil {
		return nil, err
	}
	t := p.timedWindow(s, s.Seconds)
	if len(t.Wall) == 0 {
		return nil, fmt.Errorf("%s: no run succeeded", w.Name)
	}
	o := &outcome{Correct: t.Failed == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: metrics{}, Reference: p.ref}
	docsPerS, mbPerS := make([]float64, len(t.Wall)), make([]float64, len(t.Wall))
	for i, wall := range t.Wall {
		docsPerS[i] = float64(p.in.Docs) / wall
		mbPerS[i] = float64(p.in.RawBytes) / 1e6 / wall
	}
	o.Samples = map[string]summary{
		"wall_s":      summarize("s", t.Wall),
		"docs_per_s":  summarize("docs/s", docsPerS),
		"mb_per_s":    summarize("MB/s", mbPerS),
		"cpu_s":       summarize("s", t.CPU),
		"peak_rss_mb": summarize("MB", t.RSS),
		"setup_s":     summarize("s", p.setup),
	}
	for name, sm := range o.Samples {
		o.Metrics.set(name, sm.Median, sm.Unit)
	}
	return o, nil
}

// perLayer measures the workload's layers: a short untraced window for
// the base wall time, one traced round in this process, then the direct
// calls into single layers.
func perLayer(s settings, w workload) (*outcome, error) {
	p, err := prepare(s, w, 1)
	if err != nil {
		return nil, err
	}
	base := p.timedWindow(s, s.Seconds/4)
	if len(base.Wall) == 0 {
		return nil, fmt.Errorf("%s: no run succeeded", w.Name)
	}
	o := &outcome{Attempted: base.Attempted + 1, Failed: base.Failed, Metrics: metrics{}, Reference: p.ref}
	m := o.Metrics

	workDir := filepath.Join(p.dir, "traced-work")
	if w.Resume {
		if err := os.CopyFS(workDir, os.DirFS(p.template)); err != nil {
			return nil, err
		}
	}
	// plan.Build is timed by itself, over the state the round is about to
	// plan from (for the resume workload: the cold run's profile sidecar).
	recipe, err := loadRecipe(w, p.recipe, p.in, workDir, "")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := plan.Build(recipe); err != nil {
		return nil, err
	}
	m.set("plan.build_s", time.Since(start).Seconds(), "s")

	t, err := runTraced(w, s.BinDir, p.recipe, p.in, workDir, filepath.Join(p.dir, "traced-out"))
	if err != nil {
		return nil, err
	}
	if t.export != p.ref {
		o.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: traced export %s differs from reference %s\n", w.Name, t.export.Digest[:12], p.ref.Digest[:12])
	}
	o.Correct = o.Failed == 0
	o.Spans = t.tr.spans
	if o.TopOp, err = tracedMetrics(m, t, p.in); err != nil {
		return nil, err
	}

	head, lines, err := loadHead(p.in, headDocs)
	if err != nil {
		return nil, err
	}
	if err := sampleLayer(m, lines); err != nil {
		return nil, err
	}
	if err := cacheLayer(m, head, filepath.Join(p.dir, "layer-cache")); err != nil {
		return nil, err
	}
	if err := spillLayer(m, t.plan, p.in.Docs, s.Seed, filepath.Join(p.dir, "layer-spill")); err != nil {
		return nil, err
	}
	if err := distLayer(m, head); err != nil {
		return nil, err
	}
	if err := procLayer(m, s.BinDir); err != nil {
		return nil, err
	}

	wall := median(base.Wall)
	m.set("ref.np1_wall_s", p.refWall.Seconds(), "s")
	m.set("ref.speedup", p.refWall.Seconds()/wall, "ratio")
	m.set("trace.overhead_ratio", t.tr.spans[t.root-1].dur().Seconds()/wall, "ratio")
	return o, nil
}
