package stream

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// ShardStat records one shard's trip through one phase of the plan.
type ShardStat struct {
	// Phase is the pipeline segment (0 until the first barrier, then 1, …).
	Phase int
	// Index is the shard's position within its phase.
	Index int
	In    int
	Out   int
	// Duration is the shard's processing wall time in this phase.
	Duration time.Duration
	// CacheHit reports that the shard's leading operator run was resumed
	// from the shard cache instead of recomputed.
	CacheHit bool
}

// Report summarizes one streaming run: the per-shard statistics merged
// into per-operator aggregates comparable with the batch core.Report.
type Report struct {
	// OpStats holds one aggregated entry per planned op, in plan order.
	// InCount/OutCount sum over shards; Duration sums shard processing
	// time (CPU time, not wall time); CacheHit is set when every shard's
	// result for the op came from the shard cache.
	OpStats []core.OpStat
	// Shards holds the per-shard, per-phase statistics.
	Shards []ShardStat
	// ShardCount is the number of shards read from the source.
	ShardCount int
	// InCount / OutCount are the total samples read and emitted.
	InCount, OutCount int
	// ResumedShards counts shard runs satisfied by the shard cache.
	ResumedShards int
	// PlanSize is the number of planned ops.
	PlanSize int
	// Total is the end-to-end wall time.
	Total time.Duration
	// Dist is the worker fleet's statistics (nil for in-process runs).
	Dist *dist.RunStats
}

// Merge folds another report into this one. Merging is associative and
// commutative in every aggregate — counts and durations sum, per-op
// entries match by plan index and fused members by name, Total takes
// the max (partial reports describe overlapping wall time), ShardCount
// and ResumedShards sum, and Dist merges through dist.RunStats.Merge.
// The receiver owns all merged state afterwards; o is not mutated.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	if len(r.OpStats) < len(o.OpStats) {
		grown := make([]core.OpStat, len(o.OpStats))
		copy(grown, r.OpStats)
		r.OpStats = grown
		r.PlanSize = o.PlanSize
	}
	for i := range o.OpStats {
		os := &o.OpStats[i]
		rs := &r.OpStats[i]
		if rs.Name == "" {
			rs.Name = os.Name
			rs.PlanIndex = os.PlanIndex
			rs.CacheHit = os.CacheHit
		} else {
			rs.CacheHit = rs.CacheHit && os.CacheHit
		}
		rs.InCount += os.InCount
		rs.OutCount += os.OutCount
		rs.Duration += os.Duration
		if os.Workers > rs.Workers {
			rs.Workers = os.Workers
		}
		rs.Members = mergeMembers(rs.Members, os.Members)
	}
	r.Shards = append(r.Shards, o.Shards...)
	r.ShardCount += o.ShardCount
	r.InCount += o.InCount
	r.OutCount += o.OutCount
	r.ResumedShards += o.ResumedShards
	if o.Total > r.Total {
		r.Total = o.Total
	}
	if o.Dist != nil {
		if r.Dist == nil {
			r.Dist = &dist.RunStats{}
		}
		r.Dist.Merge(*o.Dist)
	}
}

// mergeMembers sums fused-member attribution by name without mutating
// either input slice's backing array beyond the receiver's copy.
func mergeMembers(dst, src []plan.MemberStat) []plan.MemberStat {
	if len(src) == 0 {
		return dst
	}
	out := append([]plan.MemberStat(nil), dst...)
	for _, m := range src {
		found := false
		for j := range out {
			if out[j].Name == m.Name {
				out[j].In += m.In
				out[j].Out += m.Out
				out[j].Samples += m.Samples
				out[j].Duration += m.Duration
				found = true
				break
			}
		}
		if !found {
			out = append(out, m)
		}
	}
	return out
}

// Summary renders the report in the style of the batch CLI output. The
// per-op table comes from the shared telemetry renderer, so both
// backends print the identical format from one piece of code.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streamed: %d -> %d samples in %s (%d planned ops, %d shards",
		r.InCount, r.OutCount, r.Total.Round(time.Millisecond), r.PlanSize, r.ShardCount)
	if r.ResumedShards > 0 {
		fmt.Fprintf(&b, ", %d resumed from cache", r.ResumedShards)
	}
	b.WriteString(")\n")
	b.WriteString(telemetry.FormatOpTable(core.TelemetryRows(r.OpStats)))
	b.WriteString(r.DistSummary())
	return b.String()
}

// DistSummary renders the worker-fleet section of the summary (empty
// for in-process runs).
func (r *Report) DistSummary() string {
	d := r.Dist
	if d == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "distributed: %d workers, %d retries, %d steals, %d in-process fallbacks\n",
		len(d.Workers), d.Retries, d.Steals, d.Fallbacks)
	for _, w := range d.Workers {
		flag := ""
		if w.Dead {
			flag = " DEAD"
		}
		fmt.Fprintf(&b, "  w%-2d %-21s %d stages, %d steals, %d retries%s\n",
			w.Worker, w.Addr, w.Stages, w.Steals, w.Retries, flag)
	}
	if d.BytesSent > 0 || d.BytesRecv > 0 {
		fmt.Fprintf(&b, "  wire: %.1f MiB sent, %.1f MiB recv",
			float64(d.BytesSent)/(1<<20), float64(d.BytesRecv)/(1<<20))
		if d.DeltaStages > 0 {
			fmt.Fprintf(&b, ", %d delta stages", d.DeltaStages)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// aggregator merges concurrent per-shard observations into the report.
// Next to the report aggregates it keeps an executed-only view: shards
// satisfied by the shard cache contribute their counts to the report
// (the data did flow) but not to the executed view, whose durations are
// real execution cost — the only thing profile persistence may fold
// into the sidecar. Without the split, a partially cache-resumed run
// would average near-zero cache-read durations into an op's measured
// cost and the planner would order an expensive filter as if free.
type aggregator struct {
	mu     sync.Mutex
	stats  []core.OpStat
	exec   []core.OpStat
	misses []int // per op: shards that executed it without a cache hit
	hits   []int
	report *Report
}

func newAggregator(p *plan.Plan) *aggregator {
	a := &aggregator{
		stats:  make([]core.OpStat, len(p.Nodes)),
		exec:   make([]core.OpStat, len(p.Nodes)),
		misses: make([]int, len(p.Nodes)),
		hits:   make([]int, len(p.Nodes)),
		report: &Report{PlanSize: len(p.Nodes)},
	}
	for i := range p.Nodes {
		a.stats[i].Name = p.Nodes[i].Op.Name()
		a.stats[i].PlanIndex = i
		a.exec[i].Name = p.Nodes[i].Op.Name()
		a.exec[i].PlanIndex = i
		a.exec[i].Workers = 1
	}
	return a
}

// addOp folds one shard's pass through plan op i into the aggregate.
// dur lands in the report; execDur — the portion that is real execution
// work (runIndex excludes its index turn wait, every other caller
// passes dur) — lands in the executed view. workers is the parallelism
// the op ran under (1 for shard-local and shared-index work, the full
// pool for a barrier op) — it normalizes the executed view's durations
// to CPU time for profile persistence.
func (a *aggregator) addOp(i, in, out int, dur, execDur time.Duration, cacheHit bool, workers int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats[i].InCount += in
	a.stats[i].OutCount += out
	a.stats[i].Duration += dur
	if workers > a.stats[i].Workers {
		a.stats[i].Workers = workers
	}
	if cacheHit {
		a.hits[i]++
	} else {
		a.misses[i]++
		a.exec[i].InCount += in
		a.exec[i].OutCount += out
		a.exec[i].Duration += execDur
		if workers > a.exec[i].Workers {
			a.exec[i].Workers = workers
		}
	}
}

// execStats returns the executed-only aggregates (for PersistProfiles).
func (a *aggregator) execStats() []core.OpStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exec
}

// addShard records one shard's phase trip.
func (a *aggregator) addShard(st ShardStat) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.report.Shards = append(a.report.Shards, st)
	if st.CacheHit {
		a.report.ResumedShards++
	}
}

// finish seals the report.
func (a *aggregator) finish(shardCount, in, out int, total time.Duration) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.stats {
		a.stats[i].CacheHit = a.hits[i] > 0 && a.misses[i] == 0
	}
	a.report.OpStats = a.stats
	a.report.ShardCount = shardCount
	a.report.InCount = in
	a.report.OutCount = out
	a.report.Total = total
	return a.report
}
