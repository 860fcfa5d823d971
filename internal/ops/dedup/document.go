package dedup

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
)

func init() {
	ops.Register("document_deduplicator", ops.CategoryDeduplicator, "general",
		func(p ops.Params) (ops.OP, error) {
			return &documentDedup{
				textKey:     p.String("text_key", "text"),
				lowercase:   p.Bool("lowercase", true),
				ignorePunct: p.Bool("ignore_non_character", true),
			}, nil
		})
}

// documentDedup removes exact duplicates by hashing the (normalized)
// document text.
type documentDedup struct {
	spillState
	textKey     string
	lowercase   bool
	ignorePunct bool
}

func (d *documentDedup) Name() string { return "document_deduplicator" }

// Signature implements ops.StreamDeduper: exact duplicates are exactly
// the samples whose normalized-text hashes collide, so the streaming
// engine can dedup against a shared signature index without a barrier.
// The hash streams over the text — normalization never materializes.
func (d *documentDedup) Signature(s *sample.Sample) uint64 {
	t, _ := s.GetString(d.textKey)
	return normalizedHash(t, d.lowercase, d.ignorePunct)
}

var (
	_ ops.StreamDeduper = (*documentDedup)(nil)
	_ ops.Spiller       = (*documentDedup)(nil)
)

// Dedup streams (hash, index) records into sorted runs, bounded by the
// op's spill budget (in memory without one); the k-way merge then visits
// each hash group in ascending index order, so the first record of a
// group is its cluster's kept representative.
func (d *documentDedup) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	runs := spill.NewSortedRuns(d.spec.Dir, d.budget(1))
	defer runs.Close()
	var mu sync.Mutex
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		h := d.Signature(s)
		mu.Lock()
		defer mu.Unlock()
		return runs.Add(h, uint64(i))
	})
	if err != nil {
		return nil, nil, err
	}
	uf := newUnionFind(ds.Len())
	root := -1
	var cur uint64
	err = runs.Merge(func(k, v uint64) error {
		if root < 0 || k != cur {
			cur, root = k, int(v)
			return nil
		}
		uf.union(root, int(v))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	kept, pairs := collapse(ds, uf)
	d.record(runs.Stats())
	return kept, pairs, nil
}
