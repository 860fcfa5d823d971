package stream

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/plan"
)

// This file is the adaptive runtime controller: the piece that closes the
// loop between the engine's live measurements and the internal/dist cost
// model. The engine feeds it per-op observations (via core.OpObserver),
// source reads, and sink writes; every decision generation — a fixed
// number of emitted shards — the controller re-plans and the engine
// applies the verdict: the worker pool is resized, the source's shard
// size is changed, and the in-flight gate (backpressure) is re-limited.

// DefaultGeneration is the number of emitted shards between re-plans.
const DefaultGeneration = 8

// DecisionRecord is one applied controller decision. The JSON form
// appears in /progress snapshots.
type DecisionRecord struct {
	// AfterShards is how many shards had been emitted when the decision
	// was taken.
	AfterShards int `json:"after_shards"`
	Workers     int `json:"workers"`
	ShardSize   int `json:"shard_size"`
	MaxInFlight int `json:"max_in_flight"`
	// Why carries the cost-model inputs behind the verdict.
	Why string `json:"why,omitempty"`
}

// Metrics is the controller's self-report, merged into stream.Report.
// The JSON form is the adaptive section of /progress snapshots.
type Metrics struct {
	// Adaptive reports whether the controller was active.
	Adaptive bool `json:"adaptive"`
	// Workers / ShardSize / MaxInFlight are the final decision in force.
	Workers     int `json:"workers"`
	ShardSize   int `json:"shard_size"`
	MaxInFlight int `json:"max_in_flight"`
	// Generations counts re-planning rounds; Resizes counts the rounds
	// that changed at least one knob.
	Generations int `json:"generations"`
	Resizes     int `json:"resizes"`
	// Decisions lists every applied change, in order.
	Decisions []DecisionRecord `json:"decisions,omitempty"`
	// BackpressureWaits counts source reads that blocked on the in-flight
	// gate; BackpressureWait is their summed wall time.
	BackpressureWaits int           `json:"backpressure_waits,omitempty"`
	BackpressureWait  time.Duration `json:"backpressure_wait_ns,omitempty"`
	// Profiles is the final live cost profile, in plan order.
	Profiles []dist.OpProfile `json:"profiles,omitempty"`
}

// Summary renders the metrics in the CLI report style.
func (m *Metrics) Summary() string {
	if m == nil || !m.Adaptive {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive: workers=%d shard=%d in-flight<=%d (%d generations, %d resizes",
		m.Workers, m.ShardSize, m.MaxInFlight, m.Generations, m.Resizes)
	if m.BackpressureWaits > 0 {
		fmt.Fprintf(&b, ", backpressure %d waits/%s",
			m.BackpressureWaits, m.BackpressureWait.Round(time.Millisecond))
	}
	b.WriteString(")\n")
	for _, d := range m.Decisions {
		fmt.Fprintf(&b, "  shard %4d: workers=%d shard=%d in-flight<=%d  %s\n",
			d.AfterShards, d.Workers, d.ShardSize, d.MaxInFlight, d.Why)
	}
	return b.String()
}

// Controller adapts the engine's execution parameters from live
// measurements. It is safe for concurrent use; observations arrive from
// shard workers, decisions are taken on the emitter goroutine.
type Controller struct {
	model      *dist.OnlineModel
	tuning     dist.Tuning
	generation int

	// planIdx / planName / serial are immutable after newController and
	// read lock-free from shard workers.
	planIdx  map[ops.OP]int
	planName map[ops.OP]string
	serial   map[int]bool // plan indexes of barrier (once-per-phase) ops

	mu       sync.Mutex
	dec      dist.Decision
	emitted  int
	lastPlan int
	records  []DecisionRecord
	resizes  int
	gens     int

	bpMu    sync.Mutex
	bpWaits int
	bpWait  time.Duration
}

// newController builds a controller over the given physical plan with
// the initial decision in force until the first measurements arrive.
// Planner-placed barrier ops are recorded as serial: their cost is
// once-per-phase, not per-shard.
func newController(p *plan.Plan, initial dist.Decision, t dist.Tuning, generation int) *Controller {
	if generation <= 0 {
		generation = DefaultGeneration
	}
	c := &Controller{
		model:      dist.NewOnlineModel(0),
		tuning:     t,
		generation: generation,
		planIdx:    make(map[ops.OP]int, len(p.Nodes)),
		planName:   make(map[ops.OP]string, len(p.Nodes)),
		serial:     make(map[int]bool),
		dec:        initial,
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		c.planIdx[n.Op] = i
		c.planName[n.Op] = n.Op.Name()
		if n.Capability == plan.Barrier {
			c.serial[i] = true
		}
	}
	return c
}

// ObserveOp implements core.OpObserver: every operator application the
// shared runner performs — shard-local runs and barrier ops alike — lands
// in the online model under its plan position. planIdx/planName are
// immutable after construction, so this hot path takes no lock.
func (c *Controller) ObserveOp(o core.OpObservation) {
	seq, ok := c.planIdx[o.Op]
	if !ok {
		return // not a planned op (e.g. a nested member of a fused op)
	}
	name := c.planName[o.Op]
	c.model.RecordOp(dist.OpSample{
		Seq: seq, Name: name, In: o.In, Out: o.Out, Bytes: o.Bytes, Duration: o.Duration,
		Serial: c.serial[seq],
	})
}

// observeIndexOp records a shared-index dedup pass, which bypasses the
// runner. dur must exclude the index turn wait — queueing is not work.
// maxParallel is the op's parallelism ceiling (1 for the ordered
// signature index): the model folds it in so the worker plan knows index
// work spreads across at most that many probes.
func (c *Controller) observeIndexOp(op ops.OP, in, out int, bytes int64, dur time.Duration, maxParallel int) {
	seq, ok := c.planIdx[op]
	if !ok {
		return
	}
	c.model.RecordOp(dist.OpSample{
		Seq: seq, Name: c.planName[op], In: in, Out: out, Bytes: bytes, Duration: dur,
		Serial: c.serial[seq], MaxParallel: maxParallel,
	})
}

// ObserveSource records one source read.
func (c *Controller) ObserveSource(samples int, bytes int64, dur time.Duration) {
	c.model.RecordSource(samples, bytes, dur)
}

// ObserveSink records one sink write.
func (c *Controller) ObserveSink(samples int, dur time.Duration) {
	c.model.RecordSink(samples, dur)
}

// observeBackpressure accumulates one blocked source read.
func (c *Controller) observeBackpressure(dur time.Duration) {
	c.bpMu.Lock()
	c.bpWaits++
	c.bpWait += dur
	c.bpMu.Unlock()
}

// ShardSize returns the shard size currently in force.
func (c *Controller) ShardSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dec.ShardSize
}

// Decision returns the decision currently in force.
func (c *Controller) Decision() dist.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dec
}

// shardEmitted advances the emitted-shard count and, at each generation
// boundary, consults the cost model. It returns the decision in force and
// whether it changed (the engine then resizes the pool and gate).
func (c *Controller) shardEmitted() (dist.Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emitted++
	if c.emitted-c.lastPlan < c.generation {
		return c.dec, false
	}
	c.lastPlan = c.emitted
	c.gens++
	next, ok := c.model.Plan(c.tuning, c.dec)
	if !ok {
		return c.dec, false
	}
	changed := next.Workers != c.dec.Workers ||
		next.ShardSize != c.dec.ShardSize ||
		next.MaxInFlight != c.dec.MaxInFlight
	c.dec = next
	if changed {
		c.resizes++
		c.records = append(c.records, DecisionRecord{
			AfterShards: c.emitted, Workers: next.Workers,
			ShardSize: next.ShardSize, MaxInFlight: next.MaxInFlight, Why: next.Why,
		})
	}
	return c.dec, changed
}

// metrics seals the controller's self-report.
func (c *Controller) metrics() *Metrics {
	c.mu.Lock()
	dec := c.dec
	gens := c.gens
	resizes := c.resizes
	records := append([]DecisionRecord(nil), c.records...)
	c.mu.Unlock()
	c.bpMu.Lock()
	waits, wait := c.bpWaits, c.bpWait
	c.bpMu.Unlock()
	return &Metrics{
		Adaptive:          true,
		Workers:           dec.Workers,
		ShardSize:         dec.ShardSize,
		MaxInFlight:       dec.MaxInFlight,
		Generations:       gens,
		Resizes:           resizes,
		Decisions:         records,
		BackpressureWaits: waits,
		BackpressureWait:  wait,
		Profiles:          c.model.Profiles(),
	}
}

// gate bounds the shards in flight — processing, queued, or waiting for
// ordered emission. Unlike a semaphore channel, its limit can move while
// acquirers wait, which is how the controller applies backpressure: the
// source blocks in acquire until the emitter releases slots or the limit
// rises.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	inflight int
	closed   bool
}

func newGate(limit int) *gate {
	if limit < 1 {
		limit = 1
	}
	g := &gate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot is free (or the gate closes — then false).
// blocked, when non-nil, receives the time spent waiting if the call had
// to wait at all.
func (g *gate) acquire(blocked func(time.Duration)) bool {
	g.mu.Lock()
	waited := false
	var start time.Time
	for g.inflight >= g.limit && !g.closed {
		if !waited {
			waited = true
			start = time.Now()
		}
		g.cond.Wait()
	}
	if waited && blocked != nil {
		blocked(time.Since(start))
	}
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.inflight++
	g.mu.Unlock()
	return true
}

// release frees one slot.
func (g *gate) release() {
	g.mu.Lock()
	g.inflight--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// setLimit moves the in-flight bound; raising it wakes waiting acquirers.
func (g *gate) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	g.mu.Lock()
	g.limit = n
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close aborts the gate: every current and future acquire returns false.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// pool is a resizable worker pool draining one work channel. Grow spawns
// workers immediately; shrink retires workers after they finish their
// current shard — no shard is ever abandoned mid-flight.
type pool struct {
	work <-chan *Shard
	run  func(*Shard)

	mu       sync.Mutex
	cond     *sync.Cond
	alive    int
	target   int
	draining bool
}

func newPool(work <-chan *Shard, run func(*Shard)) *pool {
	p := &pool{work: work, run: run}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// resize moves the pool toward n workers. Once wait has observed the pool
// empty, further resizes adjust only the target — a drained pool never
// restarts.
func (p *pool) resize(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.target = n
	if !p.draining {
		for p.alive < n {
			p.alive++
			go p.worker()
		}
	}
	p.mu.Unlock()
}

// size returns the current number of live workers.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// exitLocked retires the calling worker; p.mu must be held and is
// released.
func (p *pool) exitLocked() {
	p.alive--
	if p.alive == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *pool) worker() {
	for sh := range p.work {
		p.run(sh)
		p.mu.Lock()
		if p.alive > p.target {
			p.exitLocked()
			return
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.exitLocked()
}

// wait blocks until every worker has exited (the work channel must be
// closed first, or every worker shrunk away).
func (p *pool) wait() {
	p.mu.Lock()
	for p.alive > 0 {
		p.cond.Wait()
	}
	p.draining = true
	p.mu.Unlock()
}
