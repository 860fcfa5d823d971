// Command djprocess runs a data recipe end-to-end: load → process →
// export, with optional plan display, tracing and probe analysis. Two
// execution backends are available: the default batch executor
// (whole-dataset, op by op) and the shard-pipelined streaming engine
// (-stream), which bounds peak memory for corpora larger than RAM.
//
// Inputs resolve through the unified ingestion layer (internal/format):
// jsonl/json/csv/tsv/txt/md/html/code files, transparently gzip-
// decompressed ".gz" variants, directories, globs, "hub:" synthetic
// corpora, and "mix:" weighted multi-source mixtures — on either
// backend. See docs/recipes.md for the full spec and recipe reference.
//
// Usage:
//
//	djprocess -recipe recipe.yaml [-input PATH] [-output PATH] [-np N]
//	djprocess -builtin pretrain-web-en -input "hub:web-en?docs=500&seed=1" -output out.jsonl
//	djprocess -builtin minimal-clean -input "mix:a.jsonl@2,b.csv.gz@1" -output mixed.jsonl
//	djprocess -stream -shard-size 1024 -recipe recipe.yaml -input "data/*.jsonl.gz" -output out.jsonl
//	djprocess -stream -target-mem-mb 512 -recipe recipe.yaml -input big.jsonl -output out.jsonl
//	djprocess -workers 4 -recipe recipe.yaml -input big.jsonl -output out.jsonl
//	djprocess -explain -recipe recipe.yaml
//	djprocess -list-ops | -list-recipes
//
// -workers N (or -worker-addrs) switches on the multi-process
// coordinator: shard-local stages are shipped to a fleet of djworker
// subprocesses while dedup indexes, barriers and export stay in this
// process, keeping the output byte-identical to a single-process run —
// including when workers crash mid-run. See docs/distributed.md.
//
// Both backends execute the physical plan of the unified planner
// (internal/plan): measured-cost reordering, context-sharing fusion, and
// streaming capability placement. -explain prints that plan — per-op
// predicted cost and selectivity (from the recipe's profile sidecar when
// previous runs measured them), capability class, and which pass moved
// or fused each op — without running anything.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/format"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"

	"repro/internal/ops"
)

func main() {
	var (
		recipePath  = flag.String("recipe", "", "path to a recipe .yaml/.json file")
		builtin     = flag.String("builtin", "", "name of a built-in recipe (see -list-recipes)")
		input       = flag.String("input", "", "dataset spec (file, dir, glob, hub:<name>, or mix:spec@w,...; .gz transparent); overrides the recipe's dataset_path/sources")
		output      = flag.String("output", "", "export path (.jsonl/.json/.txt; .txt drops meta/stats); overrides the recipe's export_path")
		np          = flag.Int("np", 0, "worker count (0 = all cores)")
		streamMode  = flag.Bool("stream", false, "use the shard-pipelined streaming engine (bounded memory)")
		shardSize   = flag.Int("shard-size", stream.DefaultShardSize, "samples per shard in -stream mode")
		targetMemMB = flag.Int("target-mem-mb", 0, "memory target in MB: bounds dedup index memory via disk spilling, on both backends (0 = unbounded)")
		showPlan    = flag.Bool("plan", false, "print the fused execution plan before running")
		explain     = flag.Bool("explain", false, "print the optimized plan — per-op predicted cost, selectivity, capability class, and per-pass provenance — and exit without running")
		probe       = flag.Bool("probe", false, "print before/after data probes (analyzer; batch mode only)")
		space       = flag.Bool("space", false, "print the Appendix A.2 peak-disk-space analysis (batch mode only)")
		listOps     = flag.Bool("list-ops", false, "list the registered operators and exit (see internal/ops/README.md)")
		listRecipes = flag.Bool("list-recipes", false, "list the built-in recipes with their input requirements and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (see docs/performance.md)")
		memProfile  = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file (see docs/performance.md)")
		workers     = flag.Int("workers", 0, "spawn this many djworker subprocesses and distribute shard-local stages across them (implies -stream; see docs/distributed.md)")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated addresses of already-running djworkers to use instead of spawning (implies -stream)")
		workerBin   = flag.String("worker-bin", "", "djworker binary to spawn (default: djworker next to this binary, then $PATH)")
		distTimeout = flag.Duration("dist-timeout", 0, "per-stage timeout in distributed mode; a worker exceeding it is treated as failed (default 2m)")
		listen      = flag.String("listen", "", "serve the live ops endpoint on this address during the run: /metrics, /progress, /debug/pprof/* (see docs/observability.md)")
		linger      = flag.Bool("listen-linger", false, "keep the -listen endpoint serving after the run completes, until interrupted")
		noJournal   = flag.Bool("no-journal", false, "disable the structured run journal (<work_dir>/journal/<run_id>.jsonl)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "djprocess: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "djprocess: memprofile:", err)
			}
		}()
	}

	if *listOps {
		for _, info := range ops.List() {
			fmt.Printf("%-48s %-13s %s\n", info.Name, info.Category, info.Usage)
		}
		return
	}
	if *listRecipes {
		listBuiltinRecipes()
		return
	}

	recipe, err := loadRecipe(*recipePath, *builtin)
	if err != nil {
		fatal(err)
	}
	if *input != "" {
		recipe.DatasetPath = *input
		recipe.Sources = nil
	}
	if *output != "" {
		recipe.ExportPath = *output
	}
	// Only the flags given on the command line override, and then with
	// any value: -np 0 (all cores) and -target-mem-mb 0 (no target) too.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "np":
			recipe.NP = *np
		case "target-mem-mb":
			recipe.TargetMemMB = *targetMemMB
		}
	})
	// -explain plans the recipe exactly as a run would see it, so it
	// must come after every recipe-overriding flag above.
	if *explain {
		p, err := plan.Build(recipe)
		if err != nil {
			fatal(err)
		}
		fmt.Print(p.Explain())
		return
	}
	inputSpec := recipe.DatasetSpec()
	if inputSpec == "" {
		fatal(fmt.Errorf("no dataset: set dataset_path or sources in the recipe, or pass -input"))
	}
	if *listen != "" {
		recipe.Listen = *listen
	}
	if *noJournal {
		recipe.Journal = false
	}
	recipeSrc := *recipePath
	if recipeSrc == "" {
		recipeSrc = *builtin
	}

	dopts := distOptions{
		workers: *workers,
		bin:     *workerBin,
		timeout: *distTimeout,
	}
	if *workerAddrs != "" {
		for _, a := range strings.Split(*workerAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				dopts.addrs = append(dopts.addrs, a)
			}
		}
	}
	distributed := dopts.workers > 0 || len(dopts.addrs) > 0

	tele, srv := openTelemetry(recipe)
	if *streamMode || distributed {
		if err := runStreaming(recipe, recipeSrc, inputSpec, *shardSize, *showPlan, *probe || *space, tele, dopts); err != nil {
			fatal(err)
		}
	} else {
		runBatch(recipe, recipeSrc, inputSpec, *showPlan, *probe, *space, tele)
	}
	finishTelemetry(tele, srv, *linger)
}

// openTelemetry builds the run's telemetry context from the recipe: the
// JSONL journal under <work_dir>/journal unless disabled, the console
// renderer over the same event stream, and the live ops endpoint when a
// listen address is configured (-listen flag or listen: recipe key).
func openTelemetry(recipe *config.Recipe) (*telemetry.Run, *telemetry.Server) {
	opts := telemetry.RunOptions{}
	if recipe.Journal && recipe.WorkDir != "" {
		opts.JournalDir = filepath.Join(recipe.WorkDir, "journal")
	}
	t, err := telemetry.NewRun(opts)
	if err != nil {
		fatal(err)
	}
	t.OnEvent(telemetry.Console(os.Stdout))
	var srv *telemetry.Server
	if recipe.Listen != "" {
		srv, err = t.Serve(recipe.Listen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ops endpoint on http://%s (/metrics /progress /debug/pprof/)\n", srv.Addr())
	}
	return t, srv
}

// finishTelemetry closes the run's observability surfaces, optionally
// lingering so the endpoint outlives the run (CI scrapes, post-mortem
// pprof grabs).
func finishTelemetry(t *telemetry.Run, srv *telemetry.Server, linger bool) {
	if srv != nil && linger {
		fmt.Printf("ops endpoint still serving on http://%s — interrupt to exit\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	if srv != nil {
		srv.Close()
	}
	if err := t.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "djprocess: journal:", err)
	}
}

// failRun records the failure in the journal before exiting.
func failRun(t *telemetry.Run, err error) { fatal(endRunError(t, err)) }

// endRunError closes the journal with run_end status=error and returns
// err.
func endRunError(t *telemetry.Run, err error) error {
	t.End("error", 0, 0, err, nil)
	t.Close()
	return err
}

// runBatch executes the recipe on the whole-dataset batch executor.
func runBatch(recipe *config.Recipe, recipeSrc, inputSpec string, showPlan, probe, space bool, tele *telemetry.Run) {
	exec, err := core.NewExecutor(recipe)
	if err != nil {
		fatal(err)
	}
	exec.EnableTelemetry(tele)
	if showPlan {
		fmt.Println("execution plan:")
		fmt.Print(exec.Plan().Describe())
	}

	data, err := core.LoadInput(recipe)
	if err != nil {
		fatal(err)
	}
	tele.Begin("batch", recipeSrc, inputSpec, data.Len())

	if space {
		a, err := cache.AnalyzeSpace(recipe)
		if err != nil {
			failRun(tele, err)
		}
		fmt.Print(a.Render(data.TotalBytes()))
	}

	var before *analysis.Probe
	if probe {
		before = analysis.Analyze(data, recipe.NP)
	}

	out, report, err := exec.Run(data)
	if err != nil {
		failRun(tele, err)
	}

	if recipe.ExportPath != "" {
		if err := format.Export(out, recipe.ExportPath); err != nil {
			failRun(tele, err)
		}
		tele.Emit(telemetry.Event{Type: telemetry.EvExport, Input: recipe.ExportPath,
			Out: int64(out.Len())})
	}

	tele.End("ok", report.InCount(), out.Len(), nil, func(e *telemetry.Event) {
		e.PlanOps = report.PlanSize
		if len(report.OpStats) == 0 {
			e.Note = "(empty plan)"
		}
	})
	fmt.Print(telemetry.FormatOpTable(core.TelemetryRows(report.OpStats)))
	if tr := exec.Tracer(); tr != nil {
		fmt.Print(tr.Summary())
	}

	if probe {
		after := analysis.Analyze(out, recipe.NP)
		fmt.Println("\nbefore/after probe (Figure 4c view):")
		fmt.Print(analysis.RenderCompare(analysis.Compare(before, after)))
		fmt.Println("\ndiversity of the refined data:")
		fmt.Print(after.RenderDiversity(10))
	}
}

// listBuiltinRecipes prints each shipped recipe with its input
// requirements: the dataset spec it carries (dataset_path or an encoded
// sources: mixture), or the marker for recipes that need -input.
func listBuiltinRecipes() {
	fmt.Printf("%-24s %-4s %s\n", "RECIPE", "OPS", "INPUT")
	for _, name := range config.BuiltinRecipeNames() {
		r, err := config.BuiltinRecipe(name)
		if err != nil {
			fatal(err)
		}
		in := r.DatasetSpec()
		if in == "" {
			in = "(requires -input)"
		}
		fmt.Printf("%-24s %-4d %s\n", name, len(r.Process), in)
	}
}

// distOptions carries the -workers/-worker-addrs/-worker-bin/-dist-
// timeout flags into the streaming runner.
type distOptions struct {
	workers int
	addrs   []string
	bin     string
	timeout time.Duration
}

func (d distOptions) enabled() bool { return d.workers > 0 || len(d.addrs) > 0 }

// runStreaming executes the recipe on the shard-pipelined engine: the
// input is never fully resident, and export shards appear as the stream
// progresses. With distributed options set it becomes the coordinator
// of a djworker fleet — shard-local stages run in the workers, dedup
// indexes, barriers and export stay here. Errors are returned rather
// than exiting so the fleet teardown always runs; those after run_start
// are journaled first.
func runStreaming(recipe *config.Recipe, recipeSrc, inputSpec string, shardSize int, showPlan, probeOrSpace bool, tele *telemetry.Run, dopts distOptions) error {
	if probeOrSpace {
		fmt.Fprintln(os.Stderr, "djprocess: -probe/-space need the full dataset; ignored in -stream mode")
	}
	backend := "stream"
	var pool *remote.Pool
	if dopts.enabled() {
		backend = "dist"
		var err error
		pool, err = remote.NewPool(remote.PoolOptions{
			Workers:      dopts.workers,
			Addrs:        dopts.addrs,
			WorkerBin:    dopts.bin,
			WorkDir:      recipe.WorkDir,
			StageTimeout: dopts.timeout,
		})
		if err != nil {
			return err
		}
		defer pool.Close()
	}
	opts := stream.Options{
		ShardSize:      shardSize,
		TargetMemBytes: int64(recipe.TargetMemMB) << 20,
		Telemetry:      tele,
	}
	if pool != nil {
		opts.Dispatch = pool
	}
	eng, err := stream.New(recipe, opts)
	if err != nil {
		return err
	}
	// run_start must be the journal's first event, so Begin precedes
	// Configure (which journals one worker_start per fleet member).
	tele.Begin(backend, recipeSrc, inputSpec, 0)
	if pool != nil {
		if err := pool.Configure(recipe, eng.Plan(), tele.ID(), tele); err != nil {
			return endRunError(tele, err)
		}
	}
	if showPlan {
		fmt.Println("streaming execution plan:")
		fmt.Print(eng.DescribePlan())
	}
	src, err := stream.OpenSource(inputSpec, shardSize)
	if err != nil {
		return endRunError(tele, err)
	}
	var sink stream.Sink = stream.DiscardSink{}
	var sharded *stream.ShardedJSONLSink
	prefix := ""
	if recipe.ExportPath != "" {
		if !strings.EqualFold(".jsonl", filepath.Ext(recipe.ExportPath)) {
			return endRunError(tele, fmt.Errorf("stream mode exports sharded JSONL; use a .jsonl export path (got %q)", recipe.ExportPath))
		}
		prefix = recipe.ExportPath[:len(recipe.ExportPath)-len(".jsonl")]
		sharded, err = stream.NewShardedJSONLSink(prefix)
		if err != nil {
			return endRunError(tele, err)
		}
		sink = sharded
	}
	report, err := eng.Run(src, sink)
	if err != nil {
		return endRunError(tele, err)
	}
	if sharded != nil {
		tele.Emit(telemetry.Event{Type: telemetry.EvExport,
			Input: prefix + "-*.jsonl", Out: int64(report.OutCount),
			Note: fmt.Sprintf("%d shard files", len(sharded.Paths()))})
	}
	tele.End("ok", report.InCount, report.OutCount, nil, func(e *telemetry.Event) {
		e.PlanOps = report.PlanSize
		e.Shards = report.ShardCount
		e.Resumed = report.ResumedShards
	})
	// The same per-op snapshot the batch path renders.
	fmt.Print(telemetry.FormatOpTable(core.TelemetryRows(report.OpStats)))
	fmt.Print(report.DistSummary())
	if tr := eng.Tracer(); tr != nil {
		fmt.Print(tr.Summary())
	}
	return nil
}

func loadRecipe(path, builtin string) (*config.Recipe, error) {
	switch {
	case path != "" && builtin != "":
		return nil, fmt.Errorf("pass either -recipe or -builtin, not both")
	case path != "":
		return config.Load(path)
	case builtin != "":
		r, err := config.BuiltinRecipe(builtin)
		if err != nil {
			return nil, err
		}
		// DJ_* environment overrides apply to built-in recipes exactly
		// as they do to recipe files (config.Load does this itself).
		if err := r.ApplyEnv(os.Getenv); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("a recipe is required: -recipe FILE or -builtin NAME")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "djprocess:", err)
	os.Exit(1)
}
