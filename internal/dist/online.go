package dist

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// This file extends the static Figure 10 cost model with *online*
// measurements: instead of a one-shot Measure pass over encoded shards,
// an OnlineModel ingests per-operator observations while a run is in
// flight (wall time, selectivity, bytes) and answers scheduling questions
// from the live profile — how many workers saturate the pipeline, how
// large a shard should be, and how many shards may be in flight under a
// memory target. The streaming engine's adaptive controller
// (internal/stream) feeds and consults it between shard generations.

// OpSample is one observed operator application, positioned by its plan
// index so profiles stay in execution order even when names repeat.
type OpSample struct {
	Seq      int // position in the execution plan
	Name     string
	In, Out  int
	Bytes    int64 // input text bytes entering the op
	Duration time.Duration
	// Serial marks an op that runs once per phase outside the shard
	// pipeline (a barrier deduplicator). Its selectivity still thins the
	// downstream chain, but its cost is not per-shard work and must not
	// steer shard sizing.
	Serial bool
	// MaxParallel caps how many workers can make progress on this op at
	// once (0 = unbounded). A shared-index stage reports 1: its ordered
	// signature index applies one shard's batch at a time.
	MaxParallel int
}

// OpProfile is the smoothed live profile of one planned operator. The
// JSON form feeds the live ops endpoint's /progress snapshot.
type OpProfile struct {
	Seq          int    `json:"seq"`
	Name         string `json:"name"`
	Applications int    `json:"applications"`
	In           int64  `json:"in"`
	Out          int64  `json:"out"`
	Bytes        int64  `json:"bytes,omitempty"`
	// CostPerSample is the EWMA processing cost of one input sample.
	CostPerSample time.Duration `json:"cost_per_sample_ns"`
	// BytesPerSample is the EWMA text bytes of one input sample.
	BytesPerSample float64 `json:"bytes_per_sample"`
	// Selectivity is the EWMA survival ratio Out/In (1.0 for mappers).
	Selectivity float64 `json:"selectivity"`
	// Serial mirrors OpSample.Serial: a barrier op outside the pipeline.
	Serial bool `json:"serial,omitempty"`
	// MaxParallel mirrors OpSample.MaxParallel (0 = unbounded).
	MaxParallel int `json:"max_parallel,omitempty"`
}

// opState accumulates one operator's observations.
type opState struct {
	name        string
	apps        int
	in, out     int64
	bytes       int64
	cps         float64 // seconds per input sample, EWMA
	bps         float64 // bytes per input sample, EWMA
	sel         float64 // out/in, EWMA
	serial      bool
	maxParallel int // parallelism ceiling (0 = unbounded)
	initialized bool
}

func (s *opState) fold(alpha float64, in, out int, bytes int64, dur time.Duration) {
	s.apps++
	s.in += int64(in)
	s.out += int64(out)
	s.bytes += bytes
	cps := dur.Seconds() / float64(in)
	sel := float64(out) / float64(in)
	bps := float64(bytes) / float64(in)
	if !s.initialized {
		s.cps, s.sel, s.bps = cps, sel, bps
		s.initialized = true
		return
	}
	s.cps = alpha*cps + (1-alpha)*s.cps
	s.sel = alpha*sel + (1-alpha)*s.sel
	s.bps = alpha*bps + (1-alpha)*s.bps
}

// DefaultAlpha is the EWMA smoothing factor used when NewOnlineModel is
// given zero: recent shards dominate but single outliers do not.
const DefaultAlpha = 0.3

// OnlineModel aggregates live measurements of one running pipeline. All
// methods are safe for concurrent use.
type OnlineModel struct {
	mu     sync.Mutex
	alpha  float64
	ops    map[int]*opState
	source opState // pseudo-op: reading/decoding input samples
	sink   opState // pseudo-op: encoding/writing output samples
}

// NewOnlineModel returns an empty model with the given EWMA smoothing
// factor (DefaultAlpha when alpha <= 0 or > 1).
func NewOnlineModel(alpha float64) *OnlineModel {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &OnlineModel{alpha: alpha, ops: map[int]*opState{}}
}

// RecordOp folds one operator application into the profile. Observations
// with In <= 0 carry no rate information and are ignored.
func (m *OnlineModel) RecordOp(s OpSample) {
	if s.In <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.ops[s.Seq]
	if !ok {
		st = &opState{name: s.Name, serial: s.Serial}
		m.ops[s.Seq] = st
	}
	st.maxParallel = s.MaxParallel
	st.fold(m.alpha, s.In, s.Out, s.Bytes, s.Duration)
}

// RecordSource folds one source read (samples decoded from the input) —
// the serial floor a single reader imposes on the pipeline.
func (m *OnlineModel) RecordSource(samples int, bytes int64, dur time.Duration) {
	if samples <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.source.fold(m.alpha, samples, samples, bytes, dur)
}

// RecordSink folds one sink write (samples consumed by the exporter).
func (m *OnlineModel) RecordSink(samples int, dur time.Duration) {
	if samples <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink.fold(m.alpha, samples, samples, 0, dur)
}

// Profiles returns the per-operator live profiles in plan order.
func (m *OnlineModel) Profiles() []OpProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.profilesLocked()
}

func (m *OnlineModel) profilesLocked() []OpProfile {
	seqs := make([]int, 0, len(m.ops))
	for seq := range m.ops {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	out := make([]OpProfile, 0, len(seqs))
	for _, seq := range seqs {
		st := m.ops[seq]
		out = append(out, OpProfile{
			Seq: seq, Name: st.name, Applications: st.apps,
			In: st.in, Out: st.out, Bytes: st.bytes,
			CostPerSample:  time.Duration(st.cps * float64(time.Second)),
			BytesPerSample: st.bps,
			Selectivity:    st.sel,
			Serial:         st.serial,
			MaxParallel:    st.maxParallel,
		})
	}
	return out
}

// Tuning bounds the decisions Plan may take.
type Tuning struct {
	// MaxWorkers caps the worker pool (required, >= 1).
	MaxWorkers int
	// MinShardSize / MaxShardSize clamp the shard size (defaults 32 / 8192).
	MinShardSize, MaxShardSize int
	// TargetShardLatency is the wall time one shard should spend in the
	// operator chain (default 150ms): small enough to pipeline and
	// rebalance, large enough to amortize per-shard overhead.
	TargetShardLatency time.Duration
	// TargetMemBytes bounds the text bytes resident across all in-flight
	// shards (0 = unbounded).
	TargetMemBytes int64
	// InFlightPerWorker scales the in-flight shard allowance (default 2).
	InFlightPerWorker int
}

func (t Tuning) withDefaults() Tuning {
	if t.MaxWorkers < 1 {
		t.MaxWorkers = 1
	}
	if t.MinShardSize <= 0 {
		t.MinShardSize = 32
	}
	if t.MaxShardSize < t.MinShardSize {
		t.MaxShardSize = 8192
		if t.MaxShardSize < t.MinShardSize {
			t.MaxShardSize = t.MinShardSize
		}
	}
	if t.TargetShardLatency <= 0 {
		t.TargetShardLatency = 150 * time.Millisecond
	}
	if t.InFlightPerWorker < 1 {
		t.InFlightPerWorker = 2
	}
	return t
}

// Decision is one scheduling verdict of the cost model. The JSON form
// feeds the live ops endpoint's /progress snapshot and the run journal's
// controller_replan events.
type Decision struct {
	// Workers is the recommended worker-pool size.
	Workers int `json:"workers"`
	// ShardSize is the recommended samples per shard.
	ShardSize int `json:"shard_size"`
	// MaxInFlight is the recommended bound on in-flight shards — the
	// backpressure limit the source is throttled to.
	MaxInFlight int `json:"max_in_flight"`
	// ChainCostPerSample is the modeled operator-chain cost of one input
	// sample (selectivity-weighted, as in the Figure 10 probe).
	ChainCostPerSample time.Duration `json:"chain_cost_per_sample_ns,omitempty"`
	// PeakBytesPerSample is the modeled peak resident text bytes one
	// input sample induces anywhere along the chain.
	PeakBytesPerSample float64 `json:"peak_bytes_per_sample,omitempty"`
	// Selectivity is the modeled end-to-end survival ratio.
	Selectivity float64 `json:"selectivity,omitempty"`
	// Why summarizes the inputs behind the verdict, for logs and reports.
	Why string `json:"why,omitempty"`
}

// modelThroughput is the modeled pipeline rate (input samples/sec) with w
// workers: the chain parallelizes across shards, but a serial stage (the
// single reader, or the ordered sink) caps it — the same serial-floor
// argument Compose makes for the Beam-like runner's single loader.
func modelThroughput(chainCPS, serialCPS float64, w int) float64 {
	if chainCPS <= 0 {
		return math.Inf(1)
	}
	t := float64(w) / chainCPS
	if serialCPS > 0 && 1/serialCPS < t {
		t = 1 / serialCPS
	}
	return t
}

// Plan derives a scheduling decision from the live profile, starting from
// the current decision cur (kept where the model has no signal yet). The
// boolean result reports whether any operator measurements existed; with
// none, cur is returned unchanged.
//
// The reasoning mirrors the static cost model: the chain cost of one
// input sample is the sum of per-op costs weighted by upstream
// selectivity, the worker count is the smallest one whose modeled
// throughput is within 5% of the maximum (extra workers past the serial
// floor only burn memory), the shard size targets a fixed per-shard
// latency, and the in-flight allowance is cut until the resident text
// bytes fit the memory target.
func (m *OnlineModel) Plan(t Tuning, cur Decision) (Decision, bool) {
	t = t.withDefaults()
	m.mu.Lock()
	profiles := m.profilesLocked()
	srcCPS := 0.0
	if m.source.initialized {
		srcCPS = m.source.cps
	}
	sinkCPS := 0.0
	if m.sink.initialized {
		sinkCPS = m.sink.cps
	}
	m.mu.Unlock()
	if len(profiles) == 0 {
		return cur, false
	}

	// Selectivity-weighted chain cost and peak footprint per input sample.
	// Serial (barrier) ops contribute their selectivity — they thin what
	// downstream ops see — but not their cost: they run once per phase,
	// outside the shard pipeline, so their expense cannot be tuned by
	// shard size or worker count and would only poison both. They also
	// delimit the pipeline's phases: a shard traverses one phase, not the
	// whole plan, so shard sizing targets the costliest phase segment
	// (with survival and bytes measured relative to that segment's own
	// input — what a shard inside it actually holds).
	surv := 1.0     // survival from the original input (throughput model)
	chainCPS := 0.0 // total pipelined work per original input sample
	segSurv := 1.0  // survival within the current phase segment
	segCPS := 0.0   // cost per segment-input sample of the current phase
	maxSegCPS := 0.0
	peakBPS := 0.0
	capCPS := 0.0 // widest per-input cost an op's parallelism cap admits
	closeSeg := func() {
		if segCPS > maxSegCPS {
			maxSegCPS = segCPS
		}
		segCPS, segSurv = 0, 1
	}
	for _, p := range profiles {
		if p.Applications == 0 {
			continue
		}
		if p.Serial {
			closeSeg()
			surv *= p.Selectivity
			continue
		}
		chainCPS += surv * p.CostPerSample.Seconds()
		segCPS += segSurv * p.CostPerSample.Seconds()
		if b := segSurv * p.BytesPerSample; b > peakBPS {
			peakBPS = b
		}
		// An op with a parallelism ceiling (the ordered shared index
		// probes one batch at a time) bounds pipeline
		// throughput at P/(surv·cps) input samples/sec regardless of the
		// worker count — the same shape as a serial stage, scaled by 1/P.
		if p.MaxParallel > 0 {
			if s := surv * p.CostPerSample.Seconds() / float64(p.MaxParallel); s > capCPS {
				capCPS = s
			}
		}
		surv *= p.Selectivity
		segSurv *= p.Selectivity
	}
	closeSeg()
	if chainCPS <= 0 || maxSegCPS <= 0 {
		return cur, false
	}

	// Serial floor: the single-threaded reader, the ordered sink mapped
	// back to input samples through the chain's selectivity, or the
	// tightest per-op parallelism cap.
	serialCPS := srcCPS
	if s := sinkCPS * surv; s > serialCPS {
		serialCPS = s
	}
	if capCPS > serialCPS {
		serialCPS = capCPS
	}

	// Workers: fewest achieving ~the modeled maximum throughput.
	workers := t.MaxWorkers
	best := modelThroughput(chainCPS, serialCPS, t.MaxWorkers)
	for w := 1; w < t.MaxWorkers; w++ {
		if modelThroughput(chainCPS, serialCPS, w) >= 0.95*best {
			workers = w
			break
		}
	}

	// Shard size: target latency over the costliest phase segment's
	// per-sample cost, slew-limited to at most halving or doubling per
	// generation so one noisy profile cannot swing the pipeline's
	// granularity (and its resident set) at once.
	shard := int(t.TargetShardLatency.Seconds() / maxSegCPS)
	if cur.ShardSize > 0 {
		shard = clampInt(shard, cur.ShardSize/2, cur.ShardSize*2)
	}
	shard = clampInt(shard, t.MinShardSize, t.MaxShardSize)

	// Hysteresis: a shard-size drift under 25% is churn, not signal. It
	// must run before the memory clamp below — the memory bound is a hard
	// limit and may not be churned away.
	if cur.ShardSize > 0 {
		if diff := shard - cur.ShardSize; diff < cur.ShardSize/4 && -diff < cur.ShardSize/4 {
			shard = cur.ShardSize
		}
	}

	inflight := workers * t.InFlightPerWorker

	// Memory target: resident text ≈ inflight × shard × peak bytes/sample.
	// Shrink the shard first (cheaper), then the in-flight allowance, then
	// the pool itself.
	if t.TargetMemBytes > 0 && peakBPS > 0 {
		if maxShard := int(float64(t.TargetMemBytes) / (float64(inflight) * peakBPS)); maxShard < shard {
			shard = clampInt(maxShard, t.MinShardSize, t.MaxShardSize)
		}
		if int64(float64(inflight)*float64(shard)*peakBPS) > t.TargetMemBytes {
			inflight = int(float64(t.TargetMemBytes) / (float64(shard) * peakBPS))
			if inflight < 1 {
				inflight = 1
			}
			if workers > inflight {
				workers = inflight
			}
		}
	}

	return Decision{
		Workers:            workers,
		ShardSize:          shard,
		MaxInFlight:        inflight,
		ChainCostPerSample: time.Duration(chainCPS * float64(time.Second)),
		PeakBytesPerSample: peakBPS,
		Selectivity:        surv,
		Why: fmt.Sprintf("chain=%s/sample sel=%.3f peak=%.0fB/sample serial=%s/sample",
			time.Duration(chainCPS*float64(time.Second)).Round(time.Nanosecond), surv, peakBPS,
			time.Duration(serialCPS*float64(time.Second)).Round(time.Nanosecond)),
	}, true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
