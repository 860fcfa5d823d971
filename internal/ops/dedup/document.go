package dedup

import (
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

// Dedup runs the streaming engine's shared-index claim as one shard:
// hash every sample in parallel, then claim the hashes in input order
// against one first-holder index, bounded by the op's spill budget (in
// memory without one). A sample whose hash already has a holder is
// dropped, and that holder is its kept representative.
func (d *documentDedup) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	sigs := make([]uint64, ds.Len())
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		sigs[i] = d.Signature(s)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	idx := spill.NewDiskSet(d.spec.Dir, d.budget(1))
	defer idx.Close()
	holder := make([]int64, len(sigs))
	if err := idx.Claim(0, sigs, holder); err != nil {
		return nil, nil, err
	}
	d.record(idx.Stats())
	kept := make([]*sample.Sample, 0, ds.Len())
	var pairs []ops.DupPair
	for i, s := range ds.Samples {
		if holder[i] < 0 {
			kept = append(kept, s)
		} else {
			pairs = append(pairs, ops.DupPair{Dropped: i, Kept: int(holder[i])})
		}
	}
	return dataset.New(kept), pairs, nil
}
