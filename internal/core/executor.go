// Package core implements the batch pipeline executor of Data-Juicer: it
// runs a recipe's operator list over a dataset with parallel workers,
// executing the physical plan produced by the unified planner
// (internal/plan) — which owns the Sec. 6 optimizations, operator fusion
// and measured-cost reordering (Figure 6) — plus the op-chain cache of
// Sec. 4.1.1, whose keep-latest form is the crash-recovery checkpoint
// (see Walk and OpenStore), and the lineage tracer of Sec. 4.2.
package core

import (
	"fmt"
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
	PlanSize int
}

// InCount returns the sample count entering the first executed operator
// (0 for an empty plan).
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
	runner *OpRunner
	store  Store
	// checkpoint is set when store is a keep-latest checkpoint (see
	// OpenStore); a successful run empties it.
	checkpoint *cache.Store
	tele       *telemetry.Run
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
		runner: NewOpRunner(p.Built(), r.Process, tracer),
	}
	store, keepLatest, err := OpenStore(r, "cache")
	if err != nil {
		return nil, err
	}
	if store != nil {
		e.store = store
	}
	if keepLatest {
		e.checkpoint = store
	}
	ConfigureSpill(p, r)
	return e, nil
}

// OpenStore opens the store a recipe's walks use. With use_cache it is
// the op cache at <work_dir>/<cacheDir>, which keeps every state. With
// only use_checkpoint it is <work_dir>/checkpoint, kept to the latest
// state of each chain (keepLatest): Sec. 4.1.1's rule that with the
// cache off only the latest state is kept and older ones are cleaned up.
// Checkpoint states never go in the cache directory, so such a run
// neither reads nor prunes cache entries. With both off there is no
// store (nil).
func OpenStore(r *config.Recipe, cacheDir string) (s *cache.Store, keepLatest bool, err error) {
	switch {
	case r.UseCache:
		s, err = cache.NewStore(filepath.Join(r.WorkDir, cacheDir), "")
	case r.UseCheckpoint:
		s, err = cache.NewStore(filepath.Join(r.WorkDir, "checkpoint"), "")
		keepLatest = true
	}
	return s, keepLatest, err
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
	RegisterOps(t, e.plan)
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

// Run executes the plan over d and returns the processed dataset. The
// input dataset is modified in place by Mappers (clone first if the
// original must survive). After a successful run the measured per-op
// costs are folded into the recipe's profile sidecar, so the next run
// plans from them.
func (e *Executor) Run(d *dataset.Dataset) (*dataset.Dataset, *Report, error) {
	start := time.Now()
	report := &Report{PlanSize: len(e.plan.Nodes)}

	if e.tele != nil {
		e.tele.SetInputTotal(d.Len())
		e.tele.AddInput(d.Len())
		e.tele.Emit(PlanEvent(e.plan))
	}

	// key_0 derives from the dataset content alone, so editing the recipe
	// tail reuses the whole cached prefix. (Reordering the plan — e.g. the
	// first run after profiles land — changes the chain and invalidates
	// it; the cache refills under the new, faster order.)
	w := Walk{Runner: e.runner, Ops: e.plan.Ops(), NP: e.recipe.NP, KeepLatest: e.checkpoint != nil}
	key := ""
	if e.store != nil {
		w.Store = e.store
		key = cache.Key(d.Fingerprint(), "dataset", nil)
	}
	w.OnStep = func(s Step) error {
		stat := OpStat{
			Name: s.Op.Name(), InCount: s.In, OutCount: s.Out,
			Duration: s.Duration, CacheHit: s.CacheHit, PlanIndex: s.PlanIdx,
		}
		if !s.CacheHit {
			stat.Workers = s.Workers
			if ff, ok := s.Op.(*plan.FusedFilter); ok {
				stat.Members = ff.TakeMemberStats()
			}
		}
		report.OpStats = append(report.OpStats, stat)
		EmitOp(e.tele, EventSite{Parent: e.tele.RunSpan()}, s)
		if !s.CacheHit {
			EmitSpill(e.tele, s.Op, s.PlanIdx)
		}
		return nil
	}
	d, err := w.Run(d, key)
	if err != nil {
		// The store keeps the last committed op output as the recovery
		// point (Sec. 4.1.1: states are saved when errors occur).
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if e.checkpoint != nil {
		// Best-effort: a state left behind is still a valid resume point
		// of its chain.
		_ = e.checkpoint.Clear()
	}
	report.Total = time.Since(start)

	// Best-effort: a failed sidecar write must not fail a succeeded run.
	_ = PersistProfiles(e.plan, report.OpStats)

	if e.tele != nil {
		e.tele.AddOutput(d.Len())
	}
	return d, report, nil
}
