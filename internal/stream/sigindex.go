package stream

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/spill"
)

// turnstile is the ordered signature index of one stageIndex stage.
// Shards apply their signature batches strictly in shard order, so
// "first occurrence kept" means the same thing it does in the batch
// engine, and a running count of claimed samples is each sample's
// ordinal in the op's input — the index the batch op reports. The
// expensive part — computing signatures — happens before a shard takes
// its turn, so the serialized section is just index probes. A shard
// whose turn has not come parks on its own channel; the shard before
// it, once applied, advances the cursor and wakes it.
//
// The pool's work channel delivers shards in index order, so the lowest
// in-flight shard is always held by some worker and never waits: the
// turnstile is deadlock-free without any further coordination.
type turnstile struct {
	mu      sync.Mutex
	next    int                   // the shard whose turn it is
	waiting map[int]chan struct{} // shards parked until their turn
	idx     *spill.DiskSet
	claimed uint64 // samples claimed so far: the next shard's base ordinal
	err     error  // sticky: the first index failure fails every later claim

	waits  atomic.Int64 // claims that had to wait for their turn
	waitNS atomic.Int64 // summed turn wait
}

func newTurnstile(idx *spill.DiskSet) *turnstile {
	return &turnstile{waiting: map[int]chan struct{}{}, idx: idx}
}

// Claim waits for shardIdx's turn, then claims its signatures in the
// index (spill.DiskSet.Claim), filling holder (aligned with sigs): -1 for
// a first occurrence, otherwise the op-input ordinal of the sample that
// holds the signature. It returns the shard's base ordinal (its first
// sample's) and the turn wait, separately so callers can exclude
// queueing from cost signals. abort wakes the wait early with errAborted.
//
// Every shard of the phase must claim every stage exactly once, empty
// shards included, so the cursor advances past them.
func (t *turnstile) Claim(shardIdx int, sigs []uint64, holder []int64, abort <-chan struct{}) (base uint64, wait time.Duration, err error) {
	t.mu.Lock()
	if shardIdx != t.next {
		turn := make(chan struct{})
		t.waiting[shardIdx] = turn
		t.mu.Unlock()
		start := time.Now()
		select {
		case <-turn:
		case <-abort:
			return 0, time.Since(start), errAborted
		}
		wait = time.Since(start)
		t.waits.Add(1)
		t.waitNS.Add(int64(wait))
		t.mu.Lock()
	}
	base = t.claimed
	if t.err == nil {
		t.err = t.idx.Claim(base, sigs, holder[:len(sigs)])
	}
	err = t.err
	t.claimed += uint64(len(sigs))
	t.next++
	if turn, ok := t.waiting[t.next]; ok {
		delete(t.waiting, t.next)
		close(turn)
	}
	t.mu.Unlock()
	return base, wait, err
}

// Stats reports the index's spill activity.
func (t *turnstile) Stats() spill.Stats { return t.idx.Stats() }

// Close releases the index, removing any spill files.
func (t *turnstile) Close() error { return t.idx.Close() }

// WaitStats reports the claims that waited for their turn and their
// summed wait.
func (t *turnstile) WaitStats() (claims int64, wait time.Duration) {
	return t.waits.Load(), time.Duration(t.waitNS.Load())
}

// newSigIndex builds the first-holder index behind one shared-index
// stage: a disk-backed LSM set of internal/spill bounded by the stage's planner-
// assigned spill budget (its share of -target-mem-mb) when it has one and
// the recipe has a work dir, otherwise the same set unbounded, which
// never leaves memory. phaseIdx/stageIdx keep the stages' spill
// directories disjoint.
func (e *Engine) newSigIndex(phaseIdx, stageIdx int, st stage) *spill.DiskSet {
	if st.spillBudget > 0 && e.recipe.WorkDir != "" {
		dir := filepath.Join(cache.SpillDir(e.recipe.WorkDir, e.recipe.UseCache),
			fmt.Sprintf("sigidx-p%d-s%d", phaseIdx, stageIdx))
		return spill.NewDiskSet(dir, st.spillBudget)
	}
	return spill.NewDiskSet("", 0)
}
