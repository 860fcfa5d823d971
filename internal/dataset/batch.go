package dataset

import (
	"sync"

	"repro/internal/sample"
)

// MapBatches applies fn to contiguous batches of samples using np
// parallel workers; every sample appears in exactly one batch, in order
// within the batch. The first error aborts outstanding work and is
// returned. It is the batch-granular engine under Map: worker loops,
// scratch attachment and per-batch bookkeeping live in fn's caller
// instead of costing one dynamic call per sample.
func (d *Dataset) MapBatches(np int, fn func(batch []*sample.Sample) error) error {
	np = Workers(np)
	n := len(d.Samples)
	if n == 0 {
		return nil
	}
	chunk := n/(np*4) + 1
	if np == 1 || n < 2 {
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := fn(d.Samples[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		mu      sync.Mutex
		next    int
	)
	take := func() (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		lo = next
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi, true
	}
	for w := 0; w < np; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := take()
				if !ok {
					return
				}
				if err := fn(d.Samples[lo:hi]); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// FilterBatches evaluates judge over contiguous batches with np workers
// (judge fills verdict[i] for batch[i]) and splits the dataset into kept
// samples (a new Dataset, original order) and — only when collectDropped
// is set — the dropped samples. Skipping the dropped collection saves
// one slice per filter application when no tracer wants the discards.
func (d *Dataset) FilterBatches(np int, collectDropped bool,
	judge func(batch []*sample.Sample, verdict []bool)) (*Dataset, []*sample.Sample) {

	n := len(d.Samples)
	verdict := make([]bool, n)
	np = Workers(np)
	if n > 0 {
		chunk := (n + np - 1) / np
		if np == 1 || n < 2 {
			judge(d.Samples, verdict)
		} else {
			var wg sync.WaitGroup
			for lo := 0; lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					judge(d.Samples[lo:hi], verdict[lo:hi])
				}(lo, hi)
			}
			wg.Wait()
		}
	}
	keptN := 0
	for _, ok := range verdict {
		if ok {
			keptN++
		}
	}
	kept := make([]*sample.Sample, 0, keptN)
	var dropped []*sample.Sample
	if collectDropped && keptN < n {
		dropped = make([]*sample.Sample, 0, n-keptN)
	}
	for idx, ok := range verdict {
		if ok {
			kept = append(kept, d.Samples[idx])
		} else if collectDropped {
			dropped = append(dropped, d.Samples[idx])
		}
	}
	return New(kept), dropped
}
