// Package core implements the batch pipeline executor of Data-Juicer: it
// runs a recipe's operator list over a dataset with parallel workers,
// executing the physical plan produced by the unified planner
// (internal/plan) — which owns the Sec. 6 optimizations, operator fusion
// and measured-cost reordering (Figure 6) — plus the cache and
// checkpoint machinery of Sec. 4.1.1 and the lineage tracer of Sec. 4.2.
package core

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OpStat reports one executed operator.
type OpStat struct {
	Name     string
	InCount  int
	OutCount int
	Duration time.Duration
	CacheHit bool
	Resumed  bool
	// PlanIndex is the op's position in the physical plan.
	PlanIndex int
	// Workers is the parallelism Duration was measured under: the batch
	// executor applies an op with N workers so Duration is wall time of
	// parallel work, while the streaming engine runs ops serially inside
	// each shard (Duration sums per-shard CPU time, Workers 1). Profile
	// persistence multiplies Duration by Workers so every sidecar entry
	// is on one CPU-time basis, comparable across backends and with
	// fused-member attribution.
	Workers int
	// Members attributes a fused op's work to its member filters
	// (nil for plain ops and for cache-hit entries, where nothing ran).
	Members []plan.MemberStat
}

// Report summarizes one pipeline run.
type Report struct {
	OpStats  []OpStat
	Total    time.Duration
	Resumed  bool
	PlanSize int
}

// InCount returns the sample count entering the first executed operator
// (0 when every op was skipped, e.g. a fully cache-resumed run or an
// empty plan).
func (r *Report) InCount() int {
	if len(r.OpStats) == 0 {
		return 0
	}
	return r.OpStats[0].InCount
}

// Executor runs a recipe over in-memory datasets: the batch backend. The
// whole dataset moves through one operator at a time; see
// internal/stream for the shard-pipelined streaming backend.
type Executor struct {
	recipe *config.Recipe
	plan   *plan.Plan
	specs  []config.OpSpec // aligned with the *unfused* recipe order
	runner *OpRunner
	store  *cache.Store
	ckpt   *cache.CheckpointManager
	tele   *telemetry.Run
}

// NewExecutor validates the recipe and builds its physical plan through
// the unified planner (fusion, measured-cost reordering, placement).
func NewExecutor(r *config.Recipe) (*Executor, error) {
	p, err := plan.Build(r)
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if r.EnableTrace {
		tracer = trace.New(0)
	}
	e := &Executor{
		recipe: r,
		plan:   p,
		specs:  r.Process,
		runner: NewOpRunner(p.Built(), r.Process, tracer),
	}
	if r.UseCache {
		store, err := cache.NewStore(filepath.Join(r.WorkDir, "cache"), "")
		if err != nil {
			return nil, err
		}
		e.store = store
	}
	if r.UseCheckpoint {
		ckpt, err := cache.NewCheckpointManager(filepath.Join(r.WorkDir, "checkpoint"))
		if err != nil {
			return nil, err
		}
		e.ckpt = ckpt
	}
	ConfigureSpill(p, r)
	return e, nil
}

// ConfigureSpill installs the planner's spill budgets on the plan's
// spill-capable ops. With the cache enabled, spill runs live under the
// cache directory so cache disk accounting covers them; otherwise under
// <work_dir>/spill. No directory is created here — the spill structures
// mkdir lazily, only when an op actually spills.
func ConfigureSpill(p *plan.Plan, r *config.Recipe) {
	if r.WorkDir == "" {
		return
	}
	dir := cache.SpillDir(r.WorkDir, r.UseCache)
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.SpillBudget <= 0 {
			continue
		}
		if sp, ok := n.Op.(ops.Spiller); ok {
			sp.ConfigureSpill(ops.SpillSpec{Dir: dir, BudgetBytes: n.SpillBudget})
		}
	}
}

// Plan returns the physical plan the executor runs.
func (e *Executor) Plan() *plan.Plan { return e.plan }

// Tracer returns the lineage tracer (nil unless the recipe enables it).
func (e *Executor) Tracer() *trace.Tracer { return e.runner.Tracer() }

// Runner returns the shared per-op application logic, so other backends
// (the streaming engine) execute operators exactly as the batch path does.
func (e *Executor) Runner() *OpRunner { return e.runner }

// EnableTelemetry connects the executor to a telemetry run: every op
// application feeds the metric registry, completions and cache hits
// become journal events, and tracer lineage joins the journal. Call
// before Run.
func (e *Executor) EnableTelemetry(t *telemetry.Run) {
	if t == nil {
		return
	}
	e.tele = t
	e.runner = e.runner.WithObserver(AttachTelemetry(t, e.plan))
	if tr := e.runner.Tracer(); tr != nil {
		tr.SetSink(TraceJournalSink(t))
	}
}

// EmitSpill emits the spill journal event and metrics for an op whose
// most recent execution pushed index state to disk; a no-op for ops that
// are not spill-capable or stayed in memory. Shared with the streaming
// engine's barrier path.
func EmitSpill(t *telemetry.Run, op ops.OP, planIdx int) {
	sp, ok := op.(ops.Spiller)
	if !ok || t == nil {
		return
	}
	st := sp.SpillStats()
	if !st.Spilled {
		return
	}
	t.ObserveSpill(op.Name(), st.Runs, st.SpilledBytes)
	t.Emit(telemetry.Event{
		Type: telemetry.EvSpill, Parent: t.RunSpan(),
		Name: op.Name(), PlanIdx: planIdx,
		Bytes: st.SpilledBytes, SpillRuns: st.Runs,
	})
}

// recipeFingerprint identifies this recipe + input dataset combination for
// checkpoint compatibility checks.
func (e *Executor) recipeFingerprint(d *dataset.Dataset) string {
	h := fnv.New64a()
	fmt.Fprint(h, d.Fingerprint(), "\x00")
	for _, s := range e.specs {
		fmt.Fprint(h, s.Name, "\x00")
		fmt.Fprint(h, cache.Key("", s.Name, s.Params), "\x00")
	}
	fmt.Fprintf(h, "fusion=%v", e.recipe.OpFusion)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run executes the plan over d and returns the processed dataset. The
// input dataset is modified in place by Mappers (clone first if the
// original must survive). After a successful run the measured per-op
// costs are folded into the recipe's profile sidecar, so the next run
// plans from them.
func (e *Executor) Run(d *dataset.Dataset) (*dataset.Dataset, *Report, error) {
	start := time.Now()
	nodes := e.plan.Nodes
	report := &Report{PlanSize: len(nodes)}
	np := e.recipe.NP

	if e.tele != nil {
		e.tele.SetInputTotal(d.Len())
		e.tele.AddInput(d.Len())
		e.tele.Emit(PlanEvent(e.plan))
	}

	recipeFP := ""
	startIdx := 0
	if e.ckpt != nil || e.store != nil {
		recipeFP = e.recipeFingerprint(d)
	}
	if e.ckpt != nil {
		if idx, saved, ok, err := e.ckpt.Resume(recipeFP); err != nil {
			return nil, nil, err
		} else if ok {
			d = saved
			startIdx = idx
			report.Resumed = true
		}
	}

	// Chain cache keys: key_i = H(key_{i-1}, op_i identity). key_0 derives
	// from the dataset content alone, so editing the recipe tail reuses the
	// whole cached prefix. (Reordering the plan — e.g. the first run after
	// profiles land — changes the chain and invalidates it; the cache
	// refills under the new, faster order.)
	chainKey := ""
	if e.store != nil {
		chainKey = cache.Key(d.Fingerprint(), "dataset", nil)
		for i := 0; i < startIdx && i < len(nodes); i++ {
			chainKey = e.runner.OpCacheKey(chainKey, nodes[i].Op)
		}
	}

	for i := startIdx; i < len(nodes); i++ {
		op := nodes[i].Op
		opStart := time.Now()
		inCount := d.Len()

		var key string
		if e.store != nil {
			key = e.runner.OpCacheKey(chainKey, op)
			if cached, ok, err := e.store.Get(key); err != nil {
				return nil, nil, err
			} else if ok {
				d = cached
				chainKey = key
				stat := OpStat{Name: op.Name(), InCount: inCount, OutCount: d.Len(),
					Duration: time.Since(opStart), CacheHit: true, PlanIndex: i}
				report.OpStats = append(report.OpStats, stat)
				e.runner.TraceCacheHit(op, inCount, d.Len(), stat.Duration)
				if e.tele != nil {
					e.tele.Op(i).CacheHit(inCount, d.Len())
					e.tele.Emit(telemetry.Event{
						Type: telemetry.EvCacheHit, Parent: e.tele.RunSpan(),
						Name: op.Name(), Kind: OpKind(op), PlanIdx: i,
						In: int64(inCount), Out: int64(d.Len()),
						DurNS: int64(stat.Duration),
					})
				}
				continue
			}
		}

		out, err := e.runner.ApplyOp(op, d, np)
		if err != nil {
			// Preserve a recovery point before surfacing the failure, as
			// described in Sec. 4.1.1 (states are saved when errors occur).
			if e.ckpt != nil {
				_ = e.ckpt.Save(recipeFP, i, d)
			}
			return nil, nil, fmt.Errorf("core: op %d (%s): %w", i, op.Name(), err)
		}
		d = out

		if e.store != nil {
			if err := e.store.Put(key, d); err != nil {
				return nil, nil, err
			}
			chainKey = key
		}
		if e.ckpt != nil {
			if err := e.ckpt.Save(recipeFP, i+1, d); err != nil {
				return nil, nil, err
			}
		}
		stat := OpStat{
			Name: op.Name(), InCount: inCount, OutCount: d.Len(),
			Duration: time.Since(opStart), PlanIndex: i,
			Workers: dataset.Workers(np),
		}
		if ff, ok := op.(*plan.FusedFilter); ok {
			stat.Members = ff.TakeMemberStats()
		}
		report.OpStats = append(report.OpStats, stat)
		if e.tele != nil {
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvOpComplete, Span: e.tele.NewSpan(), Parent: e.tele.RunSpan(),
				Name: op.Name(), Kind: OpKind(op), PlanIdx: i,
				In: int64(stat.InCount), Out: int64(stat.OutCount),
				DurNS: int64(stat.Duration), Workers: stat.Workers,
			})
			EmitSpill(e.tele, op, i)
		}
	}

	if e.ckpt != nil {
		_ = e.ckpt.Clear()
	}
	report.Total = time.Since(start)

	// Best-effort: a failed sidecar write must not fail a succeeded run.
	_ = PersistProfiles(e.plan, report.OpStats)

	if e.tele != nil {
		e.tele.AddOutput(d.Len())
	}
	return d, report, nil
}
