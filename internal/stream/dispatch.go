package stream

import (
	"errors"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// StageDispatcher routes one shard-local stage — plan ops
// [fromOp, toOp) applied to one shard — to a remote worker and returns
// the surviving samples, the per-op flows measured where the work ran,
// and the 1-based worker lane it ran on. Implementations retry failed
// workers internally; dist.ErrNoWorkers means the whole fleet is gone
// and the engine must run the stage in-process. The coordinator-side
// implementation is internal/remote.Pool.
//
// Optional extensions the engine asserts for: dist.Statser attaches
// fleet statistics to the report, MemberFlusher folds the workers'
// quiesced fused-member attribution into it.
type StageDispatcher interface {
	RunStage(shard, fromOp, toOp int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error)
}

// MemberFlusher is implemented by dispatchers that can report the
// fleet's end-of-run fused-member attribution.
type MemberFlusher interface {
	FinishMembers() []dist.MemberFlow
}

// runLocalDispatch is the distributed counterpart of runLocal: resume
// what the shard cache already holds, ship the remaining op suffix to a
// worker, and degrade to in-process execution only when the fleet is
// dead. The cache discipline differs from the local path in one way —
// a dispatched stage stores only its final result (under the fully
// folded chain key), since intermediate datasets never return from the
// worker. Resume therefore checks the exact per-op prefix first (local
// runs stored those) and the stage-final key second.
func (p *phaseRun) runLocalDispatch(st stage, d *dataset.Dataset, useCache bool, shardIdx int, shardSpan int64) (*dataset.Dataset, bool, error) {
	e := p.eng
	n := len(st.ops)
	chainKey := ""
	var keys []string
	k := 0
	hits := 0
	if useCache {
		chainKey = cache.Key(d.Fingerprint(), "stream-shard", nil)
		keys = make([]string, n)
		ck := chainKey
		for i, op := range st.ops {
			ck = e.runner.OpCacheKey(ck, op)
			keys[i] = ck
		}
		// Exact per-op prefix resume (entries written by local runs or
		// in-process fallbacks).
		for k < n {
			if p.aborted() {
				return nil, false, errAborted
			}
			opStart := time.Now()
			inCount := d.Len()
			cached, ok, err := e.store.Get(keys[k])
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			d = cached
			chainKey = keys[k]
			hits++
			p.agg.addOp(st.planIdx[k], inCount, d.Len(), time.Since(opStart), 0, true, 1)
			e.runner.TraceCacheHit(st.ops[k], inCount, d.Len(), time.Since(opStart))
			if e.tele != nil {
				e.tele.Op(st.planIdx[k]).CacheHit(inCount, d.Len())
				e.tele.Emit(telemetry.Event{
					Type: telemetry.EvCacheHit, Parent: shardSpan,
					Name: st.ops[k].Name(), Kind: core.OpKind(st.ops[k]), PlanIdx: st.planIdx[k],
					Phase: p.phase, Shard: shardIdx,
					In: int64(inCount), Out: int64(d.Len()),
					DurNS: int64(time.Since(opStart)),
				})
			}
			k++
		}
		if k == n {
			return d, hits > 0, nil
		}
		// Stage-final resume (entry written by a previous dispatched
		// run). Intermediate flows are unknown; attribute the suffix as
		// cache hits carrying the known entry and exit counts.
		if k < n-1 {
			cached, ok, err := e.store.Get(keys[n-1])
			if err != nil {
				return nil, false, err
			}
			if ok {
				in := d.Len()
				for i := k; i < n; i++ {
					p.agg.addOp(st.planIdx[i], in, cached.Len(), 0, 0, true, 1)
					if e.tele != nil {
						e.tele.Op(st.planIdx[i]).CacheHit(in, cached.Len())
						e.tele.Emit(telemetry.Event{
							Type: telemetry.EvCacheHit, Parent: shardSpan,
							Name: st.ops[i].Name(), Kind: core.OpKind(st.ops[i]), PlanIdx: st.planIdx[i],
							Phase: p.phase, Shard: shardIdx,
							In: int64(in), Out: int64(cached.Len()),
						})
					}
					in = cached.Len()
				}
				return cached, true, nil
			}
		}
	}

	fromOp, toOp := st.planIdx[k], st.planIdx[n-1]+1
	out, flows, workerID, err := e.dispatch.RunStage(shardIdx, fromOp, toOp, d)
	if err != nil {
		if errors.Is(err, dist.ErrNoWorkers) {
			// The fleet is dead: finish this stage in-process from where
			// the cached prefix left off — same ops, same order, same
			// cache discipline, so the export stays byte-identical.
			d2, h2, err := p.runLocalFrom(st, d, k, chainKey, useCache, shardIdx, shardSpan)
			if err != nil {
				return nil, false, err
			}
			hits += h2
			return d2, hits == n && hits > 0, nil
		}
		return nil, false, err
	}
	for _, f := range flows {
		li := f.PlanIdx - st.planIdx[0]
		dur := time.Duration(f.DurNS)
		p.agg.addOp(f.PlanIdx, int(f.In), int(f.Out), dur, dur, false, 1)
		if e.tele != nil {
			e.tele.Op(f.PlanIdx).Observe(int(f.In), int(f.Out), f.Bytes, dur)
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvOpComplete, Span: e.tele.NewSpan(), Parent: shardSpan,
				Name: f.Name, Kind: core.OpKind(st.ops[li]), PlanIdx: f.PlanIdx,
				Phase: p.phase, Shard: shardIdx,
				In: f.In, Out: f.Out, DurNS: f.DurNS,
				Workers: 1, Worker: workerID,
			})
		}
	}
	if useCache {
		if err := e.store.Put(keys[n-1], out); err != nil {
			return nil, false, err
		}
	}
	return out, false, nil
}

// mergeMemberFlows folds the fleet's fused-member attribution into the
// report and executed aggregates, matching members by plan index and
// name. Entries the coordinator never executed locally still exist
// (TakeMemberStats reports all members), so this is a sum, not an
// append, in the common case.
func mergeMemberFlows(stats, exec []core.OpStat, flows []dist.MemberFlow) {
	fold := func(ms []plan.MemberStat, f dist.MemberFlow) []plan.MemberStat {
		for j := range ms {
			if ms[j].Name == f.Name {
				ms[j].In += int(f.In)
				ms[j].Out += int(f.Out)
				ms[j].Samples += int(f.Samples)
				ms[j].Duration += time.Duration(f.DurNS)
				return ms
			}
		}
		return append(ms, plan.MemberStat{
			Name: f.Name, In: int(f.In), Out: int(f.Out),
			Samples: int(f.Samples), Duration: time.Duration(f.DurNS),
		})
	}
	for _, f := range flows {
		if f.PlanIdx < 0 || f.PlanIdx >= len(stats) {
			continue
		}
		stats[f.PlanIdx].Members = fold(stats[f.PlanIdx].Members, f)
		exec[f.PlanIdx].Members = fold(exec[f.PlanIdx].Members, f)
	}
}
