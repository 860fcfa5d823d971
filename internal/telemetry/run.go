package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RunOptions configures NewRun. All fields are optional.
type RunOptions struct {
	// JournalDir, when non-empty, writes <JournalDir>/<RunID>.jsonl.
	JournalDir string
	// JournalWriter, when non-nil, receives journal lines instead of a
	// file (test hook). Ignored if JournalDir is set.
	JournalWriter io.Writer
	// RunID overrides the generated run identifier.
	RunID string
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// OpMetrics is the per-operator hot-path instrument bundle. Handles are
// resolved once at RegisterOp; Observe is pure atomic arithmetic —
// 0 allocs/sample, pinned by the AllocsPerRun regression tests.
type OpMetrics struct {
	Name    string
	PlanIdx int

	in     atomic.Int64
	out    atomic.Int64
	bytes  atomic.Int64
	wallNS atomic.Int64
	apps   atomic.Int64
	hits   atomic.Int64
	hitIn  atomic.Int64
	hitOut atomic.Int64

	rate atomicFloat // EWMA samples/sec

	samplesIn  *Counter
	samplesOut *Counter
	bytesIn    *Counter
	wallNs     *Counter
	appsC      *Counter
	cacheHits  *Counter
	cacheMiss  *Counter
	durHist    *Histogram

	predCostNS int64   // planner-predicted ns/sample (0 = unknown)
	predSel    float64 // planner-predicted selectivity
}

const ewmaAlpha = 0.3

// Observe records one application of the operator: in samples, out
// samples, input bytes, and wall time. Safe for concurrent use.
func (m *OpMetrics) Observe(in, out int, bytes int64, d time.Duration) {
	if m == nil {
		return
	}
	m.in.Add(int64(in))
	m.out.Add(int64(out))
	m.bytes.Add(bytes)
	m.wallNS.Add(int64(d))
	m.apps.Add(1)
	m.cacheMiss.Inc()
	m.samplesIn.Add(int64(in))
	m.samplesOut.Add(int64(out))
	m.bytesIn.Add(bytes)
	m.wallNs.Add(int64(d))
	m.appsC.Inc()
	m.durHist.Observe(d.Seconds())
	if d > 0 && in > 0 {
		inst := float64(in) / d.Seconds()
		for {
			old := m.rate.bits.Load()
			prev := math.Float64frombits(old)
			next := inst
			if prev > 0 {
				next = ewmaAlpha*inst + (1-ewmaAlpha)*prev
			}
			if m.rate.bits.CompareAndSwap(old, math.Float64bits(next)) {
				break
			}
		}
	}
}

// CacheHit accounts an application that was served from cache: counts
// flow through the op, but no wall time is charged.
func (m *OpMetrics) CacheHit(in, out int) {
	if m == nil {
		return
	}
	m.in.Add(int64(in))
	m.out.Add(int64(out))
	m.hitIn.Add(int64(in))
	m.hitOut.Add(int64(out))
	m.apps.Add(1)
	m.hits.Add(1)
	m.samplesIn.Add(int64(in))
	m.samplesOut.Add(int64(out))
	m.appsC.Inc()
	m.cacheHits.Inc()
}

// In returns total samples in (cache hits included).
func (m *OpMetrics) In() int64 {
	if m == nil {
		return 0
	}
	return m.in.Load()
}

// Out returns total samples out (cache hits included).
func (m *OpMetrics) Out() int64 {
	if m == nil {
		return 0
	}
	return m.out.Load()
}

// Wall returns accumulated (non-cached) wall time.
func (m *OpMetrics) Wall() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.wallNS.Load())
}

// Run is one pipeline execution's telemetry context: the metric
// registry, the journal, the span ID allocator, and per-op instruments.
type Run struct {
	Reg *Registry

	id      string
	journal *Journal
	clock   func() time.Time
	start   time.Time

	obsMu     sync.Mutex
	observers []func(Event)

	spanSeq atomic.Int64
	runSpan int64

	opMu  sync.Mutex
	ops   []*OpMetrics
	byIdx map[int]*OpMetrics

	inputTotal atomic.Int64
	runIn      atomic.Int64
	runOut     atomic.Int64

	workers     *Gauge
	shardSize   *Gauge
	maxInFlight *Gauge
	targetMem   *Gauge
	goroutines  *Gauge
	heapBytes   *Gauge
	bpWaits     *Counter
	bpWaitNs    *Counter
	runInC      *Counter
	runOutC     *Counter
	shardHist   *Histogram

	backend string
	recipe  string
	input   string
}

var runSeq atomic.Int64

// NewRun constructs a telemetry run. The returned Run is never nil;
// with empty options it journals nowhere but still aggregates metrics.
func NewRun(opts RunOptions) (*Run, error) {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	id := opts.RunID
	if id == "" {
		id = fmt.Sprintf("%s-%d-%d", clock().UTC().Format("20060102-150405"),
			os.Getpid(), runSeq.Add(1))
	}
	r := &Run{
		Reg:   NewRegistry(),
		id:    id,
		clock: clock,
		byIdx: map[int]*OpMetrics{},
	}
	if opts.JournalDir != "" {
		j, err := NewJournal(opts.JournalDir, id)
		if err != nil {
			return nil, err
		}
		r.journal = j
	} else if opts.JournalWriter != nil {
		r.journal = JournalTo(opts.JournalWriter)
	}
	r.workers = r.Reg.Gauge("dj_workers", "current worker pool size")
	r.shardSize = r.Reg.Gauge("dj_shard_size", "current shard size in samples")
	r.maxInFlight = r.Reg.Gauge("dj_max_in_flight", "current in-flight shard budget")
	r.targetMem = r.Reg.Gauge("dj_target_mem_bytes", "configured memory target in bytes")
	r.goroutines = r.Reg.Gauge("dj_goroutines", "goroutine count at scrape time")
	r.heapBytes = r.Reg.Gauge("dj_heap_alloc_bytes", "heap allocation at scrape time")
	r.bpWaits = r.Reg.Counter("dj_backpressure_waits_total", "reader stalls waiting for shard budget")
	r.bpWaitNs = r.Reg.ScaledCounter("dj_backpressure_wait_seconds_total", "total reader stall time", 1e-9)
	r.runInC = r.Reg.Counter("dj_run_samples_in_total", "samples read from the source")
	r.runOutC = r.Reg.Counter("dj_run_samples_out_total", "samples emitted by the pipeline")
	r.shardHist = r.Reg.Histogram("dj_shard_samples", "samples per shard", SizeBuckets)
	return r, nil
}

// ID returns the run identifier.
func (r *Run) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// JournalPath returns the journal file path ("" if not file-backed).
func (r *Run) JournalPath() string {
	if r == nil {
		return ""
	}
	return r.journal.Path()
}

// OnEvent registers an observer invoked synchronously for every emitted
// event (the console renderer attaches here).
func (r *Run) OnEvent(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.obsMu.Lock()
	r.observers = append(r.observers, fn)
	r.obsMu.Unlock()
}

// Emit stamps the event with the run ID and timestamp, writes it to the
// journal, and notifies observers.
func (r *Run) Emit(e Event) {
	if r == nil {
		return
	}
	if e.TS == 0 {
		e.TS = r.clock().UnixNano()
	}
	e.RunID = r.id
	r.journal.Write(e)
	r.obsMu.Lock()
	obs := r.observers
	r.obsMu.Unlock()
	for _, fn := range obs {
		fn(e)
	}
}

// NewSpan allocates a fresh span ID.
func (r *Run) NewSpan() int64 {
	if r == nil {
		return 0
	}
	return r.spanSeq.Add(1)
}

// RunSpan returns the root span opened by Begin.
func (r *Run) RunSpan() int64 {
	if r == nil {
		return 0
	}
	return r.runSpan
}

// Begin emits run_start and opens the root span. inputSamples may be 0
// when the source size is unknown (streaming).
func (r *Run) Begin(backend, recipe, input string, inputSamples int) {
	if r == nil {
		return
	}
	r.start = r.clock()
	r.backend, r.recipe, r.input = backend, recipe, input
	r.runSpan = r.NewSpan()
	if inputSamples > 0 {
		r.inputTotal.Store(int64(inputSamples))
	}
	r.Emit(Event{
		Type: EvRunStart, Span: r.runSpan, Schema: SchemaVersion,
		Backend: backend, Recipe: recipe, Input: input, In: int64(inputSamples),
	})
}

// End emits run_end with final totals. extra mutates the event before
// emission (shard counts, notes); it may be nil.
func (r *Run) End(status string, in, out int, err error, extra func(*Event)) {
	if r == nil {
		return
	}
	e := Event{
		Type: EvRunEnd, Span: r.runSpan, Status: status,
		In: int64(in), Out: int64(out),
		DurNS:   int64(r.clock().Sub(r.start)),
		PlanOps: len(r.Ops()),
	}
	if err != nil {
		e.Error = err.Error()
	}
	if extra != nil {
		extra(&e)
	}
	r.Emit(e)
}

// Close flushes and closes the journal.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	return r.journal.Close()
}

// RegisterOp resolves the per-op instrument bundle for one plan node.
// Call once per node before the hot path starts; handles are reused if
// the same plan index registers twice.
func (r *Run) RegisterOp(planIdx int, name string, predCostNS int64, predSel float64) *OpMetrics {
	if r == nil {
		return nil
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if m, ok := r.byIdx[planIdx]; ok {
		return m
	}
	lbl := Label{Key: "op", Value: name}
	m := &OpMetrics{
		Name: name, PlanIdx: planIdx,
		predCostNS: predCostNS, predSel: predSel,
		samplesIn:  r.Reg.Counter("dj_op_samples_in_total", "samples entering the operator", lbl),
		samplesOut: r.Reg.Counter("dj_op_samples_out_total", "samples surviving the operator", lbl),
		bytesIn:    r.Reg.Counter("dj_op_bytes_in_total", "input bytes entering the operator", lbl),
		wallNs:     r.Reg.ScaledCounter("dj_op_wall_seconds_total", "operator wall time", 1e-9, lbl),
		appsC:      r.Reg.Counter("dj_op_applications_total", "operator applications (batches/shards)", lbl),
		cacheHits:  r.Reg.Counter("dj_op_cache_hits_total", "applications served from cache", lbl),
		cacheMiss:  r.Reg.Counter("dj_op_cache_misses_total", "applications executed", lbl),
		durHist:    r.Reg.Histogram("dj_op_duration_seconds", "per-application operator wall time", DurationBuckets, lbl),
	}
	r.byIdx[planIdx] = m
	r.ops = append(r.ops, m)
	sort.Slice(r.ops, func(i, j int) bool { return r.ops[i].PlanIdx < r.ops[j].PlanIdx })
	return m
}

// Op returns the instrument bundle registered for a plan index, or nil.
func (r *Run) Op(planIdx int) *OpMetrics {
	if r == nil {
		return nil
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return r.byIdx[planIdx]
}

// Ops returns the registered instruments in plan order.
func (r *Run) Ops() []*OpMetrics {
	if r == nil {
		return nil
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return append([]*OpMetrics(nil), r.ops...)
}

// SetInputTotal records the known source size for ETA computation.
func (r *Run) SetInputTotal(n int) {
	if r == nil {
		return
	}
	r.inputTotal.Store(int64(n))
}

// AddInput accounts samples read from the source.
func (r *Run) AddInput(n int) {
	if r == nil {
		return
	}
	r.runIn.Add(int64(n))
	r.runInC.Add(int64(n))
}

// AddOutput accounts samples emitted by the pipeline.
func (r *Run) AddOutput(n int) {
	if r == nil {
		return
	}
	r.runOut.Add(int64(n))
	r.runOutC.Add(int64(n))
}

// SetControls publishes the streaming pipeline's fixed shape: pool
// size, shard size, in-flight budget, and the configured memory target.
func (r *Run) SetControls(workers, shardSize, maxInFlight int, targetBytes int64) {
	if r == nil {
		return
	}
	r.workers.Set(int64(workers))
	r.shardSize.Set(int64(shardSize))
	r.maxInFlight.Set(int64(maxInFlight))
	r.targetMem.Set(targetBytes)
}

// ObserveBackpressure accounts one reader stall.
func (r *Run) ObserveBackpressure(d time.Duration) {
	if r == nil {
		return
	}
	r.bpWaits.Inc()
	r.bpWaitNs.Add(int64(d))
}

// ObserveSpill accounts one dedup index's spill activity: runs (spill
// files) written and bytes spilled, labeled by op name.
func (r *Run) ObserveSpill(op string, runs, bytes int64) {
	if r == nil {
		return
	}
	lbl := Label{Key: "op", Value: op}
	r.Reg.Counter("dj_spill_runs_total", "dedup index spill files written", lbl).Add(runs)
	r.Reg.Counter("dj_spill_bytes_total", "dedup index bytes spilled to disk", lbl).Add(bytes)
}

// ObserveIndexWait accounts one shard's blocked wait for its turn at a
// shared signature index, labeled by op name.
func (r *Run) ObserveIndexWait(op string, d time.Duration) {
	if r == nil {
		return
	}
	lbl := Label{Key: "op", Value: op}
	r.Reg.Counter("dj_index_waits_total", "index claims that blocked on in-order resolution", lbl).Inc()
	r.Reg.ScaledCounter("dj_index_wait_seconds_total", "total signature index resolution wait time", 1e-9, lbl).Add(int64(d))
}

// ObserveWire records one completed dispatch exchange's transport
// bytes on the wire in each direction.
func (r *Run) ObserveWire(worker int, sent, recv int64) {
	if r == nil {
		return
	}
	lbl := Label{Key: "worker", Value: fmt.Sprint(worker)}
	r.Reg.Counter("dj_dist_bytes_sent_total", "bytes sent to workers on the dispatch wire", lbl).Add(sent)
	r.Reg.Counter("dj_dist_bytes_recv_total", "bytes received from workers on the dispatch wire", lbl).Add(recv)
}

// ObserveShard records one shard's sample count.
func (r *Run) ObserveShard(samples int) {
	if r == nil {
		return
	}
	r.shardHist.Observe(float64(samples))
}
