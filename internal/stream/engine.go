// Package stream is the shard-pipelined streaming execution backend: the
// second engine next to the batch executor of internal/core. It
// partitions the input into fixed-size shards and pushes every shard
// through the full operator chain inside a worker pool, so shard K can
// be in op 3 while shard K+1 is still in op 1 and peak memory stays
// O(shards in flight) instead of O(corpus).
//
// The engine executes the physical plan built by the unified planner
// (internal/plan): execution order, fusion groups, and capability
// placement all come from that one layer, shared with the batch
// executor. Operators execute through the same core.OpRunner, so both
// backends apply ops identically. The planned capability decides the
// flow: mappers and filters are shard-local; signature deduplicators
// (ops.StreamDeduper) run against a shared signature index that applies
// shard batches in stream order, preserving the batch engine's
// first-occurrence semantics without a barrier (see sigindex.go);
// similarity deduplicators are declared barriers — the engine drains
// the stream, merges the shards in order, applies the op, and re-shards.
//
// With the recipe's cache enabled, every shard's leading run of
// shard-local ops is cached per (shard content, op chain) key via
// internal/cache, so an interrupted run resumes at shard granularity;
// with only use_checkpoint, the same walk keeps just the latest state of
// each shard's chain (see core.OpenStore). Each shard-local stage is one
// core.Walk — the same probe/apply/put loop as the batch executor's —
// whether it runs in-process or on a djworker fleet (see dispatch.go).
//
// The pipeline's shape is fixed for the whole run: np workers (the
// recipe's worker count), a static shard size, and a gate bounding the
// shards in flight (see gate.go). The plan itself adapts to measurements
// through the planner's profile sidecar, between runs.
package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultShardSize is the shard size used when Options leaves it zero.
const DefaultShardSize = 512

// Options tunes the engine.
type Options struct {
	// ShardSize is the number of samples per shard (DefaultShardSize
	// when zero).
	ShardSize int
	// MaxInFlight bounds the shards resident in memory at once —
	// processing, queued, or waiting for ordered emission. Zero means
	// twice the worker count.
	MaxInFlight int
	// Adaptive is the removed runtime controller's switch. New rejects
	// true. It remains only so the benchmark harness, which still sets
	// it, compiles; a later benchmark-scoped change deletes it.
	Adaptive bool
	// MaxWorkers capped the removed controller's worker pool. New
	// rejects any non-zero value. It remains only so the benchmark
	// harness compiles; a later benchmark-scoped change deletes it.
	MaxWorkers int
	// TargetMemBytes is the run's configured memory target, published
	// on the dj_target_mem_bytes gauge (0 = none). The dedup spill
	// budget itself comes from the recipe's TargetMemMB via the planner.
	TargetMemBytes int64
	// Telemetry, when non-nil, connects the engine to a telemetry run:
	// per-op metrics, journal events (phases, shard spans, op
	// completions, cache hits), and tracer lineage.
	Telemetry *telemetry.Run
	// Dispatch, when non-nil, routes shard-local stages to remote
	// workers (the multi-process coordinator mode). Shared-index and
	// barrier stages always run in-process; a dispatcher that reports
	// dist.ErrNoWorkers degrades the stage to in-process execution.
	// See dispatch.go.
	Dispatch StageDispatcher
	// ShardDelay, when non-nil, sleeps the returned duration before a
	// shard enters the phase's stage chain. It exists for conformance
	// testing: randomized (seeded) per-shard delays force shards to reach
	// the signature index out of order, proving out-of-order arrival
	// keeps exports byte-identical.
	ShardDelay func(phase, shard int) time.Duration
}

// Engine is the streaming execution backend for one recipe.
type Engine struct {
	recipe      *config.Recipe
	plan        *plan.Plan
	phases      []phase
	runner      *core.OpRunner
	store       *cache.Store
	keepLatest  bool // store is a checkpoint, emptied when a run succeeds
	shardSize   int
	maxInFlight int
	np          int
	targetMem   int64
	tele        *telemetry.Run
	dispatch    StageDispatcher
	shardDelay  func(phase, shard int) time.Duration
}

// stage kinds inside one phase.
type stageKind int

const (
	stageLocal stageKind = iota // a run of consecutive shard-local ops
	stageIndex                  // one StreamDeduper behind a shared signature index
)

type stage struct {
	kind        stageKind
	ops         []ops.OP          // stageLocal: the run, in plan order
	first       int               // plan index of ops[0] (or of the one dedup)
	dedup       ops.StreamDeduper // stageIndex only
	cacheable   bool              // stageLocal: planner-annotated shard-cacheable run
	spillBudget int64             // stageIndex: planner's spill budget (0 = in-memory)
}

// phase is a maximal barrier-free segment of the plan. The engine
// pipelines shards through a phase's stages, then (unless it is the
// final phase) merges everything and applies the barrier op.
type phase struct {
	stages     []stage
	barrier    ops.OP // nil for the final phase
	barrierIdx int
}

// splitPhases segments the physical plan at its Barrier ops and groups
// the shard-local runs and shared-index stages in between, reading each
// op's capability and cache annotation straight off the planner's nodes.
func splitPhases(p *plan.Plan) []phase {
	var phases []phase
	var stages []stage
	var run []ops.OP
	runFirst, runCacheable := 0, false
	flush := func() {
		if len(run) > 0 {
			stages = append(stages, stage{kind: stageLocal, ops: run, first: runFirst, cacheable: runCacheable})
			run = nil
		}
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		switch n.Capability {
		case plan.ShardLocal:
			if len(run) == 0 {
				runFirst, runCacheable = i, n.StreamCacheable
			}
			run = append(run, n.Op)
		case plan.SharedIndex:
			flush()
			stages = append(stages, stage{
				kind: stageIndex, dedup: n.Op.(ops.StreamDeduper), first: i,
				spillBudget: n.SpillBudget,
			})
		case plan.Barrier:
			flush()
			phases = append(phases, phase{stages: stages, barrier: n.Op, barrierIdx: i})
			stages = nil
		}
	}
	flush()
	phases = append(phases, phase{stages: stages})
	return phases
}

// New validates the recipe and builds a streaming engine over the same
// physical plan the batch executor would run, produced by the unified
// planner (internal/plan).
func New(r *config.Recipe, opts Options) (*Engine, error) {
	if opts.Adaptive || opts.MaxWorkers != 0 {
		return nil, errors.New("stream: the adaptive runtime controller (Options.Adaptive, Options.MaxWorkers) was removed; the engine runs a fixed pipeline of np workers")
	}
	p, err := plan.Build(r)
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if r.EnableTrace {
		tracer = trace.New(0)
	}
	e := &Engine{
		recipe:      r,
		plan:        p,
		phases:      splitPhases(p),
		runner:      core.NewOpRunner(p.Built(), r.Process, tracer),
		shardSize:   opts.ShardSize,
		maxInFlight: opts.MaxInFlight,
		np:          dataset.Workers(r.NP),
		targetMem:   opts.TargetMemBytes,
		dispatch:    opts.Dispatch,
		shardDelay:  opts.ShardDelay,
	}
	if e.shardSize <= 0 {
		e.shardSize = DefaultShardSize
	}
	if e.maxInFlight <= 0 {
		e.maxInFlight = 2 * e.np
	}
	if e.maxInFlight < e.np {
		e.maxInFlight = e.np
	}
	if opts.Telemetry != nil {
		e.tele = opts.Telemetry
		core.RegisterOps(e.tele, p)
		if tracer != nil {
			tracer.SetSink(core.TraceJournalSink(e.tele))
		}
	}
	if e.store, e.keepLatest, err = core.OpenStore(r, "stream-cache"); err != nil {
		return nil, err
	}
	// Barrier deduplicators (minhash/simhash/vector) spill through the
	// same op-level machinery as the batch backend; shared-index stages
	// spill through their ordered index's disk-backed signature set.
	core.ConfigureSpill(p, r)
	return e, nil
}

// Plan returns the physical plan the engine runs.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Tracer returns the lineage tracer (nil unless the recipe enables it).
// In streaming mode each shard's pass through an op folds into that op's
// single merged event (examples capped at record time), and shared-index
// dedup events carry counts but no example pairs.
func (e *Engine) Tracer() *trace.Tracer { return e.runner.Tracer() }

// DescribePlan renders the plan with each op's streaming capability.
func (e *Engine) DescribePlan() string { return e.plan.Describe() }

// Run streams src through the plan into sink and returns the merged
// report. The source is always closed before Run returns; the sink is
// closed only on success — on error, partially written sink state (e.g.
// a sharded sink's .part files) is left as-is rather than finalized,
// and the next successful run over the same prefix cleans it up.
func (e *Engine) Run(src Source, sink Sink) (*Report, error) {
	start := time.Now()
	agg := newAggregator(e.plan)
	var totalIn, totalOut, sourceShards int

	if e.tele != nil {
		e.tele.Emit(core.PlanEvent(e.plan))
		e.tele.SetControls(e.np, e.shardSize, e.maxInFlight, e.targetMem)
	}

	cur := src
	for pi := range e.phases {
		ph := e.phases[pi]
		last := pi == len(e.phases)-1
		var phaseSpan int64
		var phaseStart time.Time
		if e.tele != nil {
			phaseSpan = e.tele.NewSpan()
			phaseStart = time.Now()
			name := "final"
			if ph.barrier != nil {
				name = "to barrier " + ph.barrier.Name()
			}
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvPhase, Span: phaseSpan, Parent: e.tele.RunSpan(),
				Name: name, Phase: pi,
			})
		}
		var collected []*dataset.Dataset
		emit := func(d *dataset.Dataset) error {
			if last {
				totalOut += d.Len()
				if err := sink.Consume(d); err != nil {
					return err
				}
				e.tele.AddOutput(d.Len())
				return nil
			}
			collected = append(collected, d)
			return nil
		}
		in, shards, err := e.runPhase(pi, phaseSpan, cur, ph.stages, agg, emit)
		cur.Close()
		if err != nil {
			return nil, err
		}
		if pi == 0 {
			totalIn, sourceShards = in, shards
		}
		if !last {
			// Pipeline barrier: merge the drained shards in order, apply
			// the global op with full parallelism, and re-shard the result.
			w := core.Walk{Runner: e.runner, Ops: []ops.OP{ph.barrier}, First: ph.barrierIdx, NP: e.recipe.NP,
				OnStep: func(s core.Step) error {
					agg.addOp(s.PlanIdx, s.In, s.Out, s.Duration, s.Duration, false, s.Workers)
					core.EmitOp(e.tele, core.EventSite{Parent: phaseSpan, Phase: pi, Kind: "barrier"}, s)
					core.EmitSpill(e.tele, s.Op, s.PlanIdx)
					return nil
				}}
			out, err := w.Run(dataset.Concat(collected...), "")
			if err != nil {
				return nil, fmt.Errorf("stream: barrier %w", err)
			}
			if cur, err = NewDatasetSource(out, e.shardSize); err != nil {
				return nil, err
			}
		}
		e.tele.Emit(telemetry.Event{
			Type: telemetry.EvSpanEnd, Span: phaseSpan, Parent: e.tele.RunSpan(),
			Kind: "phase", Phase: pi, DurNS: int64(time.Since(phaseStart)),
		})
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	if e.keepLatest {
		// Best-effort: a state left behind is still a valid resume point
		// of its chain.
		_ = e.store.Clear()
	}
	rep := agg.finish(sourceShards, totalIn, totalOut, time.Since(start))
	// Attribute fused ops to their members (cumulative across executed
	// shards — counters never tick on cache hits) and fold the run's
	// measurements into the profile sidecar so the next plan of this
	// recipe is ordered by them. Persistence reads the executed-only
	// aggregates: cache-resumed shard counts must not dilute measured
	// costs.
	exec := agg.execStats()
	for i := range e.plan.Nodes {
		if ff, ok := e.plan.Nodes[i].Op.(*plan.FusedFilter); ok && !rep.OpStats[i].CacheHit {
			ms := ff.TakeMemberStats()
			rep.OpStats[i].Members = ms
			exec[i].Members = ms
		}
	}
	// Distributed runs: fold the fleet's quiesced member attribution in
	// (workers execute the fused ops, so the coordinator-side counters
	// above only saw fallback work) and attach the fleet statistics.
	if e.dispatch != nil {
		if mf, ok := e.dispatch.(MemberFlusher); ok {
			mergeMemberFlows(rep.OpStats, exec, mf.FinishMembers())
		}
		if ds, ok := e.dispatch.(dist.Statser); ok {
			rep.Dist = ds.DistStats()
		}
	}
	_ = core.PersistProfiles(e.plan, exec)
	return rep, nil
}

// errAborted is returned by shard processing interrupted by another
// shard's failure; the original error is already recorded.
var errAborted = fmt.Errorf("stream: run aborted")

// phaseRun holds the shared state of one pipelined phase execution.
type phaseRun struct {
	eng     *Engine
	phase   int
	span    int64 // the phase's journal span (0 without telemetry)
	stages  []stage
	indexes map[int]*turnstile // stage index -> ordered signature index
	agg     *aggregator
	gate    *gate

	abort     chan struct{}
	abortOnce sync.Once
	runErr    error
}

func (p *phaseRun) fail(err error) {
	if errors.Is(err, errAborted) {
		return
	}
	p.abortOnce.Do(func() {
		p.runErr = err
		close(p.abort)
		// Unblock the source's backpressure wait. Index turn waits
		// select on p.abort directly; no further wakeup is needed.
		p.gate.close()
	})
}

func (p *phaseRun) aborted() bool {
	select {
	case <-p.abort:
		return true
	default:
		return false
	}
}

// runPhase pipelines every shard of src through the phase's stages and
// hands the results to emit in shard order. It returns the total samples
// and shards read from src.
func (e *Engine) runPhase(phaseIdx int, phaseSpan int64, src Source, stages []stage, agg *aggregator,
	emit func(*dataset.Dataset) error) (inCount, shardCount int, err error) {

	p := &phaseRun{
		eng: e, phase: phaseIdx, span: phaseSpan, stages: stages, agg: agg,
		indexes: map[int]*turnstile{},
		abort:   make(chan struct{}),
		gate:    newGate(e.maxInFlight),
	}
	for i, st := range stages {
		if st.kind == stageIndex {
			p.indexes[i] = newTurnstile(e.newSigIndex(phaseIdx, i, st))
		}
	}
	// Whatever happens below, the signature indexes release their spill
	// files when the phase ends; spill and contention activity is
	// journaled first.
	defer func() {
		for si, x := range p.indexes {
			st := stages[si]
			sst := x.Stats()
			_ = x.Close()
			if e.tele == nil {
				continue
			}
			if sst.Runs > 0 {
				e.tele.ObserveSpill(st.dedup.Name(), sst.Runs, sst.Bytes)
				e.tele.Emit(telemetry.Event{
					Type: telemetry.EvSpill, Parent: phaseSpan,
					Name: st.dedup.Name(), PlanIdx: st.first, Phase: phaseIdx,
					Bytes: sst.Bytes, SpillRuns: sst.Runs,
				})
			}
			waits, wait := x.WaitStats()
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvIndex, Parent: phaseSpan,
				Name: st.dedup.Name(), PlanIdx: st.first, Phase: phaseIdx,
				Partitions: 1, Waits: waits, DurNS: int64(wait),
			})
		}
	}()

	// The done buffer holds every shard the gate lets in flight, so a
	// worker never blocks handing a finished shard to the emitter.
	work := make(chan *Shard)
	done := make(chan *Shard, e.maxInFlight)
	counts := make(chan [2]int, 1)

	// Reader: pulls shards from the source, bounded by the in-flight gate
	// (released by the emitter once a shard leaves the phase). This is
	// where backpressure lands: when the sink or an index stage falls behind,
	// slots stop freeing and the reader blocks in acquire.
	go func() {
		defer close(work)
		in, n := 0, 0
		defer func() { counts <- [2]int{in, n} }()
		var onBlocked func(time.Duration)
		if e.tele != nil {
			onBlocked = e.tele.ObserveBackpressure
		}
		for {
			if !p.gate.acquire(onBlocked) {
				return // aborted
			}
			sh, err := src.Next()
			if err == io.EOF {
				p.gate.release()
				return
			}
			if err != nil {
				p.fail(err)
				return
			}
			if e.tele != nil && phaseIdx == 0 {
				e.tele.AddInput(sh.Data.Len())
			}
			sh.Index = n // dense per-phase indexes, whatever the source says
			n++
			in += sh.Data.Len()
			select {
			case work <- sh:
			case <-p.abort:
				return
			}
		}
	}()

	// Workers: each shard runs the whole stage chain on one worker, so
	// different shards occupy different ops concurrently. The work
	// channel delivers shards in index order, which guarantees the
	// lowest in-flight shard is always held by some worker — the
	// property that keeps signature index waits deadlock-free.
	var wg sync.WaitGroup
	for w := 0; w < e.np; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				if p.aborted() {
					continue
				}
				if err := p.processShard(sh); err != nil {
					p.fail(err)
					continue
				}
				done <- sh
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// Ordered emitter (caller goroutine): reorders completed shards and
	// releases their in-flight slots.
	next := 0
	buf := map[int]*dataset.Dataset{}
	for sh := range done {
		buf[sh.Index] = sh.Data
		for {
			d, ok := buf[next]
			if !ok {
				break
			}
			delete(buf, next)
			next++
			if !p.aborted() {
				if err := emit(d); err != nil {
					p.fail(err)
				}
			}
			p.gate.release()
		}
	}
	res := <-counts
	if p.runErr != nil {
		return 0, 0, p.runErr
	}
	return res[0], res[1], nil
}

// processShard pushes one shard through the phase's stages, recording
// per-op aggregates. Ops run single-threaded within the shard —
// parallelism lives across shards.
func (p *phaseRun) processShard(sh *Shard) error {
	e := p.eng
	if e.shardDelay != nil {
		if d := e.shardDelay(p.phase, sh.Index); d > 0 {
			time.Sleep(d)
		}
	}
	start := time.Now()
	in := sh.Data.Len()
	d := sh.Data
	resumed := false
	var shardSpan int64
	if e.tele != nil {
		shardSpan = e.tele.NewSpan()
	}
	for si, st := range p.stages {
		var err error
		switch st.kind {
		case stageLocal:
			var hit bool
			d, hit, err = p.runLocal(st, d, sh.Index, shardSpan)
			resumed = resumed || hit
		case stageIndex:
			d, err = p.runIndex(si, st, sh.Index, d, shardSpan)
		}
		if err != nil {
			return err
		}
	}
	sh.Data = d
	p.agg.addShard(ShardStat{
		Phase: p.phase, Index: sh.Index, In: in, Out: d.Len(),
		Duration: time.Since(start), CacheHit: resumed,
	})
	if e.tele != nil {
		e.tele.ObserveShard(in)
		e.tele.Emit(telemetry.Event{
			Type: telemetry.EvSpanEnd, Span: shardSpan, Parent: p.span,
			Kind: "shard", Phase: p.phase, Shard: sh.Index,
			In: int64(in), Out: int64(d.Len()),
			DurNS: int64(time.Since(start)), CacheHit: resumed,
		})
	}
	return nil
}

// runLocal walks one run of shard-local ops over a shard (core.Walk):
// in-process, or through the dispatcher with in-process execution as the
// fallback when the fleet is dead. Only planner-annotated runs see the
// shard cache: their results are pure functions of the shard's content,
// while runs behind a shared-index stage depend on other shards'
// signatures (see the plan's cache-boundary pass). It reports whether
// the cache served every op.
func (p *phaseRun) runLocal(st stage, d *dataset.Dataset, shardIdx int, shardSpan int64) (*dataset.Dataset, bool, error) {
	e := p.eng
	if p.aborted() {
		return nil, false, errAborted
	}
	w := core.Walk{Runner: e.runner, Ops: st.ops, First: st.first, NP: 1, KeepLatest: e.keepLatest}
	key := ""
	if st.cacheable && e.store != nil {
		w.Store = e.store
		key = cache.Key(d.Fingerprint(), "stream-shard", nil)
	}
	if e.dispatch != nil {
		w.Remote = func(from, to int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
			return e.dispatch.RunStage(shardIdx, from, to, d)
		}
	}
	site := core.EventSite{Parent: shardSpan, Phase: p.phase, Shard: shardIdx}
	hits := 0
	w.OnStep = func(s core.Step) error {
		if s.CacheHit {
			hits++
		}
		p.agg.addOp(s.PlanIdx, s.In, s.Out, s.Duration, s.Duration, s.CacheHit, 1)
		core.EmitOp(e.tele, site, s)
		if p.aborted() {
			return errAborted
		}
		return nil
	}
	out, err := w.Run(d, key)
	if err != nil {
		return nil, false, fmt.Errorf("stream: %w", err)
	}
	return out, hits == len(st.ops), nil
}

// runIndex passes one shard through a shared-signature dedup stage:
// signatures are computed before the shard takes its turn at the stage's
// ordered index (see sigindex.go).
func (p *phaseRun) runIndex(si int, st stage, shardIdx int, d *dataset.Dataset, shardSpan int64) (*dataset.Dataset, error) {
	opStart := time.Now()
	// Signatures are pure per-sample work: compute them before taking a
	// turn so the serialized section is just membership probes.
	sigs := make([]uint64, d.Len())
	for i, s := range d.Samples {
		sigs[i] = st.dedup.Signature(s)
	}
	holder := make([]int64, len(sigs))
	x := p.indexes[si]
	base, wait, err := x.Claim(shardIdx, sigs, holder, p.abort)
	if err == errAborted {
		return nil, errAborted
	}
	if err != nil {
		return nil, fmt.Errorf("stream: op %d (%s) signature index: %w",
			st.first, st.dedup.Name(), err)
	}
	// Dup pairs carry op-input ordinals, as in the batch op. The kept
	// text is at hand only when its holder sits in this shard.
	tr := p.eng.runner.Tracer()
	var kept []*sample.Sample
	var dups []trace.DupPair
	for i, s := range d.Samples {
		h := holder[i]
		if h < 0 {
			kept = append(kept, s)
			continue
		}
		if tr != nil && len(dups) < tr.MaxPerOp() {
			dp := trace.DupPair{KeptIdx: int(h), DroppedIdx: int(base) + i, Dropped: s.Text}
			if uint64(h) >= base {
				dp.Kept = d.Samples[uint64(h)-base].Text
			}
			dups = append(dups, dp)
		}
	}

	out := dataset.New(kept)
	dur := time.Since(opStart)
	// The report keeps the wall view (wait included); the executed view
	// feeding profile persistence, like the op's instruments, excludes
	// the turn wait — queueing is not work.
	p.agg.addOp(st.first, d.Len(), out.Len(), dur, dur-wait, false, 1)
	if t := p.eng.tele; t != nil {
		if wait > 0 {
			t.ObserveIndexWait(st.dedup.Name(), wait)
		}
		core.EmitOp(t, core.EventSite{Parent: shardSpan, Phase: p.phase, Shard: shardIdx}, core.Step{
			Op: st.dedup, PlanIdx: st.first, In: d.Len(), Out: out.Len(),
			Duration: dur, Wait: wait, Bytes: d.TotalBytes(), Workers: 1,
		})
	}
	if tr != nil {
		tr.Record(trace.Event{
			OpName: st.dedup.Name(), Kind: "deduplicator",
			InCount: d.Len(), OutCount: out.Len(), Duration: dur,
			DupPairs: dups,
		})
	}
	return out, nil
}
