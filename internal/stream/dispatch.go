package stream

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
)

// StageDispatcher routes one shard-local stage — plan ops
// [fromOp, toOp) applied to one shard — to a remote worker and returns
// the surviving samples, the per-op flows measured where the work ran,
// and the 1-based worker lane it ran on. Implementations retry failed
// workers internally; dist.ErrNoWorkers means the whole fleet is gone
// and the engine must run the stage in-process. The coordinator-side
// implementation is internal/remote.Pool.
//
// The engine calls it as the remote step of the stage's core.Walk (see
// runLocal): the walk first resumes what the shard cache holds, ships
// only the uncached op suffix, stores the returned result under the
// stage-final key, and on dist.ErrNoWorkers executes the suffix
// in-process instead.
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
