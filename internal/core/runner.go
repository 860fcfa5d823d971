package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/trace"
)

// OpObservation is one measured operator application: what went in, what
// came out, how many text bytes were touched, and how long it took: wall
// time yields per-sample cost, Out/In yields selectivity, Bytes yields
// the memory footprint. The telemetry instruments consume it.
type OpObservation struct {
	Op       ops.OP
	In, Out  int
	Bytes    int64 // input text bytes entering the op
	Duration time.Duration
}

// OpObserver receives one OpObservation per operator application.
// Implementations must be safe for concurrent calls: the streaming engine
// applies ops from many shard workers at once.
type OpObserver interface {
	ObserveOp(OpObservation)
}

// OpRunner applies planned operators to datasets: the per-op execution
// logic — type dispatch, tracer hooks, and chain cache keys — shared by
// the batch Executor and the streaming engine (internal/stream). An
// OpRunner is immutable after construction and safe for concurrent use;
// the tracer (if any) serializes its own recording.
type OpRunner struct {
	tracer *trace.Tracer
	ids    map[ops.OP]string
	obs    OpObserver
}

// WithObserver returns a copy of the runner that reports every operator
// application to obs. The receiver is unchanged, preserving immutability.
func (r *OpRunner) WithObserver(obs OpObserver) *OpRunner {
	c := *r
	c.obs = obs
	return &c
}

// observe emits one measurement (no-op without an observer).
func (r *OpRunner) observe(op ops.OP, in, out int, bytes int64, dur time.Duration) {
	if r.obs != nil {
		r.obs.ObserveOp(OpObservation{Op: op, In: in, Out: out, Bytes: bytes, Duration: dur})
	}
}

// NewOpRunner builds a runner for the given instantiated operators.
// built must align one-to-one with specs (the unfused recipe order);
// the per-operator identities derived from them key the chain cache.
// tracer may be nil.
func NewOpRunner(built []ops.OP, specs []config.OpSpec, tracer *trace.Tracer) *OpRunner {
	ids := make(map[ops.OP]string, len(built))
	for i, op := range built {
		if i < len(specs) {
			ids[op] = cache.Key("", specs[i].Name, specs[i].Params)
		}
	}
	return &OpRunner{tracer: tracer, ids: ids}
}

// Tracer returns the lineage tracer (nil when tracing is disabled).
func (r *OpRunner) Tracer() *trace.Tracer { return r.tracer }

// OpCacheKey folds one planned operator's identity into the chain key.
// Fused OPs compose the identities of their members, so the same fused
// pipeline state maps to the same key across runs.
func (r *OpRunner) OpCacheKey(prev string, op ops.OP) string {
	return cache.Key(prev, r.OpIdentity(op), nil)
}

// OpIdentity returns the stable identity (name + params) of a planned
// operator, composing member identities for fused OPs.
func (r *OpRunner) OpIdentity(op ops.OP) string {
	if id, ok := r.ids[op]; ok {
		return id
	}
	if fused, ok := op.(*plan.FusedFilter); ok {
		parts := make([]string, 0, len(fused.Members()))
		for _, m := range fused.Members() {
			parts = append(parts, r.OpIdentity(m))
		}
		return "fused(" + strings.Join(parts, ",") + ")"
	}
	return op.Name()
}

// ApplyOp dispatches one planned operator over the dataset.
func (r *OpRunner) ApplyOp(op ops.OP, d *dataset.Dataset, np int) (*dataset.Dataset, error) {
	switch typed := op.(type) {
	case ops.Mapper:
		return r.ApplyMapper(typed, d, np)
	case ops.Filter:
		return r.ApplyFilter(typed, d, np)
	case ops.Deduplicator:
		return r.ApplyDedup(typed, d, np)
	}
	return nil, fmt.Errorf("unsupported operator type %T", op)
}

// ApplyMapper transforms every sample in place with np workers, handing
// each worker contiguous batches so per-sample overhead (scratch
// attachment, context clearing) amortizes across the chunk.
func (r *OpRunner) ApplyMapper(m ops.Mapper, d *dataset.Dataset, np int) (*dataset.Dataset, error) {
	var inBytes int64
	if r.obs != nil {
		inBytes = d.TotalBytes() // before mutation: mappers edit text in place
	}
	obsStart := time.Now()
	var edits []trace.Edit
	collect := r.tracer != nil
	editCap := 0
	if collect {
		editCap = r.tracer.MaxPerOp()
	}
	var before []string
	if collect {
		before = make([]string, d.Len())
		for i, s := range d.Samples {
			before[i] = s.Text
		}
	}
	start := time.Now()
	err := d.MapBatches(np, func(batch []*sample.Sample) error {
		sc := sample.GetScratch()
		defer sample.PutScratch(sc)
		for _, s := range batch {
			s.AttachScratch(sc)
			err := m.Process(s)
			s.ClearContext()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if collect {
		for i, s := range d.Samples {
			if len(edits) >= editCap {
				break
			}
			if s.Text != before[i] {
				edits = append(edits, trace.Edit{Before: before[i], After: s.Text})
			}
		}
		r.tracer.Record(trace.Event{
			OpName: m.Name(), Kind: "mapper",
			InCount: d.Len(), OutCount: d.Len(),
			Duration: time.Since(start), Edits: edits,
		})
	}
	r.observe(m, d.Len(), d.Len(), inBytes, time.Since(obsStart))
	return d, nil
}

// ApplyFilter runs the two decoupled phases: parallel batch-granular
// stat computation (with per-sample context cleared afterwards, bounding
// fusion memory), then the boolean split. Filters implementing the batch
// interfaces (fused ops) own the batch loop themselves; dropped samples
// are only collected when a tracer wants them.
func (r *OpRunner) ApplyFilter(f ops.Filter, d *dataset.Dataset, np int) (*dataset.Dataset, error) {
	var inBytes int64
	if r.obs != nil {
		inBytes = d.TotalBytes()
	}
	start := time.Now()
	var statsErr error
	if sb, ok := f.(ops.StatsBatcher); ok {
		statsErr = d.MapBatches(np, sb.ComputeStatsBatch)
	} else {
		statsErr = d.MapBatches(np, func(batch []*sample.Sample) error {
			sc := sample.GetScratch()
			defer sample.PutScratch(sc)
			for _, s := range batch {
				s.AttachScratch(sc)
				err := f.ComputeStats(s)
				s.ClearContext()
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	if statsErr != nil {
		return nil, statsErr
	}
	collectDropped := r.tracer != nil
	judge := func(batch []*sample.Sample, verdict []bool) {
		for i, s := range batch {
			verdict[i] = f.Keep(s)
		}
	}
	if kb, ok := f.(ops.KeepBatcher); ok {
		judge = kb.KeepBatch
	}
	kept, dropped := d.FilterBatches(np, collectDropped, judge)
	if r.tracer != nil {
		var discards []trace.Discard
		for i, s := range dropped {
			if i >= r.tracer.MaxPerOp() {
				break
			}
			stats := map[string]float64{}
			for _, k := range f.StatKeys() {
				if v, ok := s.Stat(k); ok {
					stats[k] = v
				}
			}
			discards = append(discards, trace.Discard{Text: s.Text, Stats: stats})
		}
		r.tracer.Record(trace.Event{
			OpName: f.Name(), Kind: "filter",
			InCount: d.Len(), OutCount: kept.Len(),
			Duration: time.Since(start), Discards: discards,
		})
	}
	r.observe(f, d.Len(), kept.Len(), inBytes, time.Since(start))
	return kept, nil
}

// ApplyDedup runs a dataset-global deduplicator.
func (r *OpRunner) ApplyDedup(dd ops.Deduplicator, d *dataset.Dataset, np int) (*dataset.Dataset, error) {
	var inBytes int64
	if r.obs != nil {
		inBytes = d.TotalBytes()
	}
	start := time.Now()
	kept, pairs, err := dd.Dedup(d, np)
	if err != nil {
		return nil, err
	}
	if r.tracer != nil {
		var dp []trace.DupPair
		for i, p := range pairs {
			if i >= r.tracer.MaxPerOp() {
				break
			}
			dp = append(dp, trace.DupPair{
				Kept:    d.Samples[p.Kept].Text,
				Dropped: d.Samples[p.Dropped].Text,
			})
		}
		r.tracer.Record(trace.Event{
			OpName: dd.Name(), Kind: "deduplicator",
			InCount: d.Len(), OutCount: kept.Len(),
			Duration: time.Since(start), DupPairs: dp,
		})
	}
	r.observe(dd, d.Len(), kept.Len(), inBytes, time.Since(start))
	return kept, nil
}

// TraceCacheHit records a cache-hit event for op (no-op without a tracer).
func (r *OpRunner) TraceCacheHit(op ops.OP, in, out int, dur time.Duration) {
	if r.tracer == nil {
		return
	}
	kind := "mapper"
	switch op.(type) {
	case ops.Filter:
		kind = "filter"
	case ops.Deduplicator:
		kind = "deduplicator"
	}
	r.tracer.Record(trace.Event{
		OpName: op.Name(), Kind: kind, InCount: in, OutCount: out,
		Duration: dur, CacheHit: true,
	})
}
