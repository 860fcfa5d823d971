package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/format"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's side of the call. Start and End are offsets from the start of
// the traced round; Parent is the ID of the span that caused this one (0
// for the round itself). Spans stay in memory and are written to the
// record file when the run ends.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans. The wrapped Source, Sink and StageDispatcher are
// called from the engine's own goroutines, so begin and end lock.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0)
}

// in records fn as one span under parent and returns the span's ID.
func (t *tracer) in(name string, parent int, fn func() error) (int, error) {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return id, err
}

// durations lists, in seconds, every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// self is a span's own time: its duration minus the part of that interval
// its child spans cover. Children may overlap one another (the engine
// reads, dispatches and writes concurrently), so the covered part is the
// union of their intervals, not their sum.
func (t *tracer) self(id int) time.Duration {
	s := t.spans[id-1]
	var kids []span
	for _, c := range t.spans {
		if c.Parent == id {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered := time.Duration(0)
	edge := s.Start
	for _, c := range kids {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// tracedSource, tracedSink and tracedDispatcher wrap the three interfaces
// the streaming engine is handed, so time inside the source (file read,
// gunzip, JSONL decode), the sink (JSONL encode, shard file write) and the
// worker fleet (DJF2 encode, HTTP round trip, remote ops, decode) is seen
// from outside the engine without changing a line of it.
type tracedSource struct {
	src    stream.Source
	tr     *tracer
	parent int
	docs   int
}

func (s *tracedSource) Next() (*stream.Shard, error) {
	id := s.tr.begin("format.read", s.parent)
	sh, err := s.src.Next()
	s.tr.end(id)
	if sh != nil {
		s.docs += sh.Data.Len()
	}
	return sh, err
}

func (s *tracedSource) Close() error { return s.src.Close() }

type tracedSink struct {
	sink   stream.Sink
	tr     *tracer
	parent int
}

func (s *tracedSink) Consume(d *dataset.Dataset) error {
	_, err := s.tr.in("stream.sink", s.parent, func() error { return s.sink.Consume(d) })
	return err
}

func (s *tracedSink) Close() error {
	_, err := s.tr.in("stream.sink", s.parent, s.sink.Close)
	return err
}

// tracedDispatcher also forwards the two optional interfaces the engine
// asserts its dispatcher for, so the report carries the fleet's
// statistics exactly as it does in djprocess.
type tracedDispatcher struct {
	pool   *remote.Pool
	tr     *tracer
	parent int
}

func (d *tracedDispatcher) RunStage(shard, fromOp, toOp int, in *dataset.Dataset) (out *dataset.Dataset, flows []dist.OpFlow, worker int, err error) {
	id := d.tr.begin("remote.stage", d.parent)
	out, flows, worker, err = d.pool.RunStage(shard, fromOp, toOp, in)
	d.tr.end(id)
	return out, flows, worker, err
}

// close tears the fleet down once; later calls do nothing.
func (d *tracedDispatcher) close() {
	if d.pool != nil {
		d.pool.Close()
		d.pool = nil
	}
}

func (d *tracedDispatcher) FinishMembers() []dist.MemberFlow { return d.pool.FinishMembers() }
func (d *tracedDispatcher) DistStats() *dist.RunStats        { return d.pool.DistStats() }

// tracedRun is everything one traced round observed: the spans plus the
// public return values of the calls it made.
type tracedRun struct {
	tr      *tracer
	root    int // span of the whole round
	engine  int // span of core.Executor.Run / stream.Engine.Run
	plan    *plan.Plan
	opStats []core.OpStat
	batch   *core.Report
	stream  *stream.Report
	docsIn  int
	docsOut int
	journal string
	export  export
	workDir string
}

// loadRecipe reads the pinned recipe and applies what the workload's
// command line and environment apply in cmd/djprocess: -input, -output,
// -target-mem-mb and DJ_WORK_DIR.
func loadRecipe(w workload, recipePath string, in corpusFile, workDir, out string) (*config.Recipe, error) {
	r, err := config.Load(recipePath)
	if err != nil {
		return nil, err
	}
	r.DatasetPath = in.Path
	r.ExportPath = out
	r.WorkDir = workDir
	if v := w.argValue("-target-mem-mb"); v != "" {
		r.TargetMemMB, _ = strconv.Atoi(v) // the workload table holds a number
	}
	return r, nil
}

// runTraced replays one workload in this process through the same public
// calls cmd/djprocess makes, in the same order, with a span around each.
// The export it writes is checked against the reference like any other.
func runTraced(w workload, binDir, recipePath string, in corpusFile, workDir, outDir string) (*tracedRun, error) {
	out := filepath.Join(outDir, "out.jsonl")
	recipe, err := loadRecipe(w, recipePath, in, workDir, out)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{tr: newTracer(w.Name), workDir: workDir}
	t.root = t.tr.begin("run", 0)

	// openTelemetry in cmd/djprocess: journal on, console renderer attached.
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: filepath.Join(workDir, "journal")})
	if err != nil {
		return nil, err
	}
	tele.OnEvent(telemetry.Console(io.Discard))
	t.journal = tele.JournalPath()

	sharded := w.sharded()
	if sharded {
		err = t.streaming(w, binDir, recipe, tele, out)
	} else {
		err = t.batchRun(recipe, tele, in)
	}
	if err != nil {
		tele.Close()
		return nil, err
	}
	if _, err := t.tr.in("telemetry.close", t.root, tele.Close); err != nil {
		return nil, err
	}
	t.tr.end(t.root)
	t.export, err = digestExport(out, sharded)
	return t, err
}

// batchRun mirrors runBatch in cmd/djprocess.
func (t *tracedRun) batchRun(recipe *config.Recipe, tele *telemetry.Run, in corpusFile) error {
	var exec *core.Executor
	if _, err := t.tr.in("core.new", t.root, func() (err error) {
		exec, err = core.NewExecutor(recipe)
		return err
	}); err != nil {
		return err
	}
	exec.EnableTelemetry(tele)
	t.plan = exec.Plan()

	var data *dataset.Dataset
	if _, err := t.tr.in("format.read", t.root, func() (err error) {
		data, err = core.LoadInput(recipe)
		return err
	}); err != nil {
		return err
	}
	t.docsIn = data.Len()
	tele.Begin("batch", recipe.ProjectName, in.Path, data.Len())

	var result *dataset.Dataset
	var err error
	t.engine, err = t.tr.in("core.run", t.root, func() (err error) {
		result, t.batch, err = exec.Run(data)
		return err
	})
	if err != nil {
		return err
	}
	t.opStats, t.docsOut = t.batch.OpStats, result.Len()

	if _, err := t.tr.in("format.export", t.root, func() error {
		return format.Export(result, recipe.ExportPath)
	}); err != nil {
		return err
	}
	tele.Emit(telemetry.Event{Type: telemetry.EvExport, Input: recipe.ExportPath, Out: int64(result.Len())})
	tele.End("ok", t.batch.InCount(), result.Len(), nil, nil)
	return nil
}

// streaming mirrors runStreaming in cmd/djprocess, fleet included.
func (t *tracedRun) streaming(w workload, binDir string, recipe *config.Recipe, tele *telemetry.Run, out string) error {
	shardSize := stream.DefaultShardSize
	if v := w.argValue("-shard-size"); v != "" {
		shardSize, _ = strconv.Atoi(v) // the workload table holds a number
	}
	workers, _ := strconv.Atoi(w.argValue("-workers")) // absent means 0: no fleet

	backend := "stream"
	var fleet *tracedDispatcher // nil without -workers
	spawn := 0
	if workers > 0 {
		backend = "dist"
		var err error
		spawn, err = t.tr.in("remote.spawn", t.root, func() error {
			pool, err := remote.NewPool(remote.PoolOptions{
				Workers:   workers,
				WorkerBin: filepath.Join(binDir, "djworker"),
				WorkDir:   recipe.WorkDir,
				Env:       []string{"GOMAXPROCS=" + strconv.Itoa(np)},
			})
			fleet = &tracedDispatcher{pool: pool, tr: t.tr}
			return err
		})
		if err != nil {
			return err
		}
		defer fleet.close() // for the error paths; the success path closes under a span
	}
	opts := stream.Options{
		ShardSize:      shardSize,
		Adaptive:       recipe.Adaptive,
		MaxWorkers:     recipe.MaxWorkers,
		TargetMemBytes: int64(recipe.TargetMemMB) << 20,
		Telemetry:      tele,
	}
	if fleet != nil {
		opts.Dispatch = fleet
	}
	var eng *stream.Engine
	if _, err := t.tr.in("stream.new", t.root, func() (err error) {
		eng, err = stream.New(recipe, opts)
		return err
	}); err != nil {
		return err
	}
	t.plan = eng.Plan()
	tele.Begin(backend, recipe.ProjectName, recipe.DatasetPath, 0)
	if fleet != nil {
		if _, err := t.tr.in("remote.configure", spawn, func() error {
			return fleet.pool.Configure(recipe, eng.Plan(), tele.ID(), tele)
		}); err != nil {
			return err
		}
	}
	src, err := stream.OpenSource(recipe.DatasetSpec(), shardSize)
	if err != nil {
		return err
	}
	prefix := out[:len(out)-len(".jsonl")]
	sink, err := stream.NewShardedJSONLSink(prefix)
	if err != nil {
		src.Close()
		return err
	}

	t.engine = t.tr.begin("stream.run", t.root)
	tsrc := &tracedSource{src: src, tr: t.tr, parent: t.engine}
	if fleet != nil {
		fleet.parent = t.engine
	}
	t.stream, err = eng.Run(tsrc, &tracedSink{sink: sink, tr: t.tr, parent: t.engine})
	t.tr.end(t.engine)
	if err != nil {
		return err
	}
	t.opStats, t.docsIn, t.docsOut = t.stream.OpStats, tsrc.docs, t.stream.OutCount

	tele.Emit(telemetry.Event{Type: telemetry.EvExport, Input: prefix + "-*.jsonl",
		Out: int64(t.stream.OutCount), Note: fmt.Sprintf("%d shard files", len(sink.Paths()))})
	tele.End("ok", t.stream.InCount, t.stream.OutCount, nil, func(e *telemetry.Event) {
		e.PlanOps, e.Shards, e.Resumed = t.stream.PlanSize, t.stream.ShardCount, t.stream.ResumedShards
	})
	if fleet != nil {
		id := t.tr.begin("remote.close", t.root)
		fleet.close()
		t.tr.end(id)
	}
	return nil
}
