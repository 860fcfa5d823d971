package telemetry

import (
	"math"
	"time"
)

// OpProgress is one operator's row in a /progress snapshot.
type OpProgress struct {
	Name         string  `json:"name"`
	PlanIdx      int     `json:"plan_idx"`
	In           int64   `json:"in"`
	Out          int64   `json:"out"`
	Bytes        int64   `json:"bytes,omitempty"`
	WallNS       int64   `json:"wall_ns"`
	Applications int64   `json:"applications"`
	CacheHits    int64   `json:"cache_hits,omitempty"`
	Selectivity  float64 `json:"selectivity"`
	RateEWMA     float64 `json:"rate_ewma,omitempty"` // samples/sec
	PredCostNS   int64   `json:"pred_cost_ns,omitempty"`
	PredSel      float64 `json:"pred_selectivity,omitempty"`
	Done         bool    `json:"done,omitempty"`
}

// Progress is the /progress JSON snapshot.
type Progress struct {
	RunID      string       `json:"run_id"`
	Backend    string       `json:"backend"`
	Recipe     string       `json:"recipe,omitempty"`
	Input      string       `json:"input,omitempty"`
	ElapsedNS  int64        `json:"elapsed_ns"`
	InputTotal int64        `json:"input_total,omitempty"`
	SamplesIn  int64        `json:"samples_in"`
	SamplesOut int64        `json:"samples_out"`
	Fraction   float64      `json:"fraction,omitempty"` // 0..1 estimated work done
	ETANS      int64        `json:"eta_ns,omitempty"`
	Ops        []OpProgress `json:"ops"`
	Controls   *Controls    `json:"controls,omitempty"`
}

// Controls mirrors the streaming pipeline's gauges: its fixed shape
// plus the reader's backpressure stalls so far.
type Controls struct {
	Workers            int   `json:"workers"`
	ShardSize          int   `json:"shard_size"`
	MaxInFlight        int   `json:"max_in_flight"`
	TargetMemBytes     int64 `json:"target_mem_bytes,omitempty"`
	BackpressureWaits  int64 `json:"backpressure_waits,omitempty"`
	BackpressureWaitNS int64 `json:"backpressure_wait_ns,omitempty"`
}

// Snapshot assembles a point-in-time progress view. The ETA blends the
// planner's predicted per-op costs and selectivities with measured
// values as they accumulate: expected input to op i is
// inputTotal × ∏ selectivity(j<i), per-op unit cost is measured
// wall/in once the op has run, planner-predicted otherwise.
func (r *Run) Snapshot() *Progress {
	if r == nil {
		return nil
	}
	now := r.clock()
	elapsed := now.Sub(r.start)
	p := &Progress{
		RunID:      r.id,
		Backend:    r.backend,
		Recipe:     r.recipe,
		Input:      r.input,
		ElapsedNS:  int64(elapsed),
		InputTotal: r.inputTotal.Load(),
		SamplesIn:  r.runIn.Load(),
		SamplesOut: r.runOut.Load(),
	}
	ops := r.Ops()
	p.Ops = make([]OpProgress, 0, len(ops))
	for _, m := range ops {
		in, out := m.in.Load(), m.out.Load()
		sel := 1.0
		if in > 0 {
			sel = float64(out) / float64(in)
		}
		p.Ops = append(p.Ops, OpProgress{
			Name:         m.Name,
			PlanIdx:      m.PlanIdx,
			In:           in,
			Out:          out,
			Bytes:        m.bytes.Load(),
			WallNS:       m.wallNS.Load(),
			Applications: m.apps.Load(),
			CacheHits:    m.hits.Load(),
			Selectivity:  sel,
			RateEWMA:     m.rate.load(),
			PredCostNS:   m.predCostNS,
			PredSel:      m.predSel,
		})
	}
	if w := r.workers.Value(); w > 0 || r.shardSize.Value() > 0 {
		p.Controls = &Controls{
			Workers:            int(w),
			ShardSize:          int(r.shardSize.Value()),
			MaxInFlight:        int(r.maxInFlight.Value()),
			TargetMemBytes:     r.targetMem.Value(),
			BackpressureWaits:  r.bpWaits.Value(),
			BackpressureWaitNS: r.bpWaitNs.Value(),
		}
	}
	p.Fraction, p.ETANS = r.estimate(p.Ops, elapsed)
	return p
}

// estimate returns the fraction of total expected work already done and
// the remaining wall-time estimate, or (0, 0) when the source size is
// unknown or nothing can be predicted.
func (r *Run) estimate(ops []OpProgress, elapsed time.Duration) (float64, int64) {
	total := r.inputTotal.Load()
	if total <= 0 || len(ops) == 0 {
		return 0, 0
	}
	expectIn := float64(total)
	var doneNS, totalNS float64
	for _, op := range ops {
		unit := float64(op.PredCostNS) // ns per input sample
		sel := op.PredSel
		if op.In > 0 {
			sel = op.Selectivity
			if op.WallNS > 0 {
				unit = float64(op.WallNS) / float64(op.In)
			}
		}
		if sel <= 0 || sel > 1 {
			sel = 1
		}
		if unit <= 0 {
			// Unmeasured, unpredicted op: assume the mean unit cost of
			// what we know so far rather than pretending it is free.
			unit = meanUnit(ops)
		}
		opTotal := unit * expectIn
		opDone := unit * float64(op.In)
		if opDone > opTotal {
			opDone = opTotal
		}
		totalNS += opTotal
		doneNS += opDone
		expectIn *= sel
	}
	if totalNS <= 0 {
		return 0, 0
	}
	f := doneNS / totalNS
	if f > 1 {
		f = 1
	}
	var eta int64
	if f > 0.001 && f < 1 {
		eta = int64(float64(elapsed) * (1 - f) / f)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, 0
	}
	return f, eta
}

func meanUnit(ops []OpProgress) float64 {
	var wall, in float64
	for _, op := range ops {
		if op.In > 0 && op.WallNS > 0 {
			wall += float64(op.WallNS)
			in += float64(op.In)
		}
	}
	if in == 0 {
		return 0
	}
	return wall / in
}
