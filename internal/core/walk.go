package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Store is the op-chain store a Walk reads and writes (*cache.Store).
type Store interface {
	Get(key string) (*dataset.Dataset, bool, error)
	Put(key string, d *dataset.Dataset) error
	Delete(key string) error
}

// Step is one op of a walk, served from the store or executed.
type Step struct {
	Op       ops.OP
	PlanIdx  int
	In, Out  int
	CacheHit bool
	// Duration is the op alone: the apply (not the store write after it),
	// or the store read for a hit (0 for the ops a deeper hit skipped past
	// after the first).
	Duration time.Duration
	// Wait is the part of Duration spent waiting for a turn at a shared
	// signature index: wall time, not work.
	Wait time.Duration
	// Bytes, Workers and Worker describe an execution: input text bytes,
	// parallelism, and the 1-based fleet lane that ran it (0 = in-process).
	Bytes           int64
	Workers, Worker int
	// Data is the dataset after the step (nil for a remote execution).
	Data *dataset.Dataset
}

// Walk is the op-chain cache of Sec. 4.1.1, the one loop behind the batch
// executor, the streaming engine's shard-local stages (in-process and
// dispatched) and djworker: op i's output is stored under
// key_i = H(key_{i-1}, op_i identity), and a run resumes from the deepest
// stored state of its chain. It is also the recovery mechanism: with
// KeepLatest the store is a checkpoint that holds only the chain's latest
// state.
type Walk struct {
	Runner *OpRunner
	Ops    []ops.OP // a contiguous run of plan ops
	First  int      // the plan index of Ops[0]
	NP     int      // workers of a local execution
	Store  Store    // nil = no cache
	// KeepLatest makes Store a checkpoint (use_checkpoint without
	// use_cache): once a Put commits, the state it supersedes in this
	// chain is deleted, so at most one state per chain is on disk.
	KeepLatest bool
	// Remote, when set, executes plan ops [from, to) elsewhere and
	// returns the result, the per-op flows and the fleet lane; on
	// dist.ErrNoWorkers the walk executes them locally instead.
	Remote func(from, to int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error)
	// OnStep receives every step in plan order; an error stops the walk.
	OnStep func(Step) error
}

// Run walks the ops over d from chain key key (the key folded up to
// Ops[0]). It probes the per-op keys front to back until the first miss,
// then the remaining keys deepest-first: any hit is valid, because a
// chain key hashes the whole prefix. (A dispatched walk stores only its
// final key, since its intermediate datasets never come back; a
// checkpoint holds only the latest.) It executes the rest — remotely
// with one Put of the result, or locally with a Put per op.
func (w *Walk) Run(d *dataset.Dataset, key string) (*dataset.Dataset, error) {
	n, k := len(w.Ops), 0
	keys := make([]string, n)
	latest := "" // the chain's deepest stored state
	// probe serves ops k..j from keys[j] if it is stored. The ops a deeper
	// hit skips past have no counts of their own: the first reports the
	// known entry count, the rest the exit count.
	probe := func(j int) (bool, error) {
		start := time.Now()
		cached, ok, err := w.Store.Get(keys[j])
		if !ok || err != nil {
			return false, err
		}
		in, dur := d.Len(), time.Since(start)
		for ; k <= j; k, in, dur = k+1, cached.Len(), 0 {
			if err := w.hit(k, in, cached, dur); err != nil {
				return false, err
			}
		}
		d, latest = cached, keys[j]
		return true, nil
	}
	if w.Store != nil {
		for i, op := range w.Ops {
			key = w.Runner.OpCacheKey(key, op)
			keys[i] = key
		}
		for k < n {
			if ok, err := probe(k); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		for j := n - 1; j > k; j-- {
			if ok, err := probe(j); err != nil {
				return nil, err
			} else if ok {
				break
			}
		}
	}
	if k < n && w.Remote != nil {
		out, flows, worker, err := w.Remote(w.First+k, w.First+n, d)
		if err == nil {
			for _, f := range flows {
				if i := f.PlanIdx - w.First; i < k || i >= n {
					return nil, fmt.Errorf("remote flow for op %d outside [%d,%d)", f.PlanIdx, w.First+k, w.First+n)
				}
				if err := w.step(Step{Op: w.Ops[f.PlanIdx-w.First], PlanIdx: f.PlanIdx, In: int(f.In), Out: int(f.Out),
					Duration: time.Duration(f.DurNS), Bytes: f.Bytes, Workers: 1, Worker: worker}); err != nil {
					return nil, err
				}
			}
			_, err = w.put(keys[n-1], latest, out)
			return out, err
		}
		if !errors.Is(err, dist.ErrNoWorkers) {
			return nil, err
		}
	}
	for ; k < n; k++ {
		op := w.Ops[k]
		in, bytes := d.Len(), d.TotalBytes()
		start := time.Now()
		out, err := w.Runner.ApplyOp(op, d, w.NP)
		dur := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", w.First+k, op.Name(), err)
		}
		d = out
		if latest, err = w.put(keys[k], latest, d); err != nil {
			return nil, err
		}
		if err := w.step(Step{Op: op, PlanIdx: w.First + k, In: in, Out: d.Len(), Duration: dur,
			Bytes: bytes, Workers: dataset.Workers(w.NP), Data: d}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// put stores d under key and returns the chain's new latest state. With
// KeepLatest it then deletes prev, the state key supersedes: the Put's
// rename has committed the new one, so a valid recovery point always
// exists (the Appendix A.2 discipline).
func (w *Walk) put(key, prev string, d *dataset.Dataset) (string, error) {
	if w.Store == nil {
		return "", nil
	}
	if err := w.Store.Put(key, d); err != nil {
		return prev, err
	}
	if w.KeepLatest && prev != "" {
		// Best-effort: a state left behind is still a valid resume point
		// of its chain; it costs only disk.
		_ = w.Store.Delete(prev)
	}
	return key, nil
}

// hit reports op k as served from the cache with result d.
func (w *Walk) hit(k, in int, d *dataset.Dataset, dur time.Duration) error {
	op := w.Ops[k]
	if tr := w.Runner.Tracer(); tr != nil {
		tr.Record(trace.Event{OpName: op.Name(), Kind: OpKind(op), InCount: in, OutCount: d.Len(),
			Duration: dur, CacheHit: true})
	}
	return w.step(Step{Op: op, PlanIdx: w.First + k, In: in, Out: d.Len(), Duration: dur, CacheHit: true, Data: d})
}

func (w *Walk) step(s Step) error {
	if w.OnStep == nil {
		return nil
	}
	return w.OnStep(s)
}

// EventSite places op events in the journal: parent span, phase and
// shard (zero in a batch run), and a Kind overriding the op's own.
type EventSite struct {
	Parent       int64
	Phase, Shard int
	Kind         string
}

// EmitOp journals and meters one op step; it builds every cache_hit and
// op_complete event. A hit is a cache_hit with counts only (no wall time)
// and ticks the op's cache-hit instruments; an execution is an
// op_complete with its own span and the op's duration, and feeds the
// op's instruments its work time (Duration less Wait).
func EmitOp(t *telemetry.Run, site EventSite, s Step) {
	if t == nil {
		return
	}
	ev := telemetry.Event{
		Type: telemetry.EvCacheHit, Parent: site.Parent,
		Name: s.Op.Name(), Kind: site.Kind, PlanIdx: s.PlanIdx,
		Phase: site.Phase, Shard: site.Shard, In: int64(s.In), Out: int64(s.Out),
	}
	if ev.Kind == "" {
		ev.Kind = OpKind(s.Op)
	}
	if s.CacheHit {
		t.Op(s.PlanIdx).CacheHit(s.In, s.Out)
	} else {
		t.Op(s.PlanIdx).Observe(s.In, s.Out, s.Bytes, s.Duration-s.Wait)
		ev.Type, ev.Span, ev.DurNS = telemetry.EvOpComplete, t.NewSpan(), int64(s.Duration)
		ev.Workers, ev.Worker = s.Workers, s.Worker
	}
	t.Emit(ev)
}
