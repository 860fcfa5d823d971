package dedup

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
)

func init() {
	ops.Register("document_minhash_deduplicator", ops.CategoryDeduplicator, "general,web",
		func(p ops.Params) (ops.OP, error) {
			bands := p.Int("bands", 16)
			rows := p.Int("rows_per_band", 8)
			if bands <= 0 || rows <= 0 {
				return nil, fmt.Errorf("bands and rows_per_band must be positive")
			}
			if p.Int("shingle_size", 5) <= 0 {
				return nil, fmt.Errorf("shingle_size must be positive")
			}
			return &minhashDedup{
				textKey:   p.String("text_key", "text"),
				shingle:   p.Int("shingle_size", 5),
				bands:     bands,
				rows:      rows,
				threshold: p.Float("jaccard_threshold", 0.7),
			}, nil
		})
}

// minhashDedup detects near-duplicates with MinHash signatures and LSH
// banding (Broder's scheme, cited as [8] in the paper). Candidate pairs
// that collide in any band are verified against the true Jaccard
// similarity of their shingle sets before being merged.
type minhashDedup struct {
	spillState
	textKey   string
	shingle   int
	bands     int
	rows      int
	threshold float64
}

var _ ops.Spiller = (*minhashDedup)(nil)

func (d *minhashDedup) Name() string { return "document_minhash_deduplicator" }

func (d *minhashDedup) signatureSize() int { return d.bands * d.rows }

// signature computes the MinHash signature of a shingle set using k hash
// families derived from splitmix64.
func (d *minhashDedup) signature(shingles []uint64) []uint64 {
	k := d.signatureSize()
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, sh := range shingles {
		x := sh
		for i := 0; i < k; i++ {
			x = splitmix64(x + uint64(i)*0x9e3779b97f4a7c15)
			if x < sig[i] {
				sig[i] = x
			}
		}
	}
	return sig
}

// bandKey folds one band's signature rows into its LSH bucket key. The
// band index seeds the fold, so bucket spaces of different bands are
// disjoint (modulo 64-bit collisions) and the bucket table can group by
// the key alone.
func (d *minhashDedup) bandKey(sig []uint64, b int) uint64 {
	h := uint64(b) * 0x9e3779b97f4a7c15
	for r := 0; r < d.rows; r++ {
		h = splitmix64(h ^ sig[b*d.rows+r])
	}
	return h
}

// maxStackBands is how many band records a document's Add can collect
// without a heap allocation.
const maxStackBands = 32

// Dedup streams band keys into an LSH bucket table, bounded by the op's
// spill budget (in memory without one), instead of retaining every
// signature and shingle set; verification recomputes the shingle sets of
// candidate documents through a feature cache bounded by the same
// budget. Union-find clustering is order-independent, so the output does
// not depend on where the table lives.
func (d *minhashDedup) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	n := ds.Len()
	lsh := spill.NewLSH(d.spec.Dir, int64(n)*int64(d.bands), d.budget(2))
	defer lsh.Close()
	featureless := make([]bool, n)
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		t, _ := s.GetString(d.textKey)
		sh := wordShingles(t, d.shingle)
		if len(sh) == 0 {
			featureless[i] = true
			return nil
		}
		sig := d.signature(sh)
		var buf [maxStackBands]spill.Pair
		recs := buf[:0]
		for b := 0; b < d.bands; b++ {
			recs = append(recs, spill.Pair{K: d.bandKey(sig, b), V: uint64(i)})
		}
		return lsh.Add(recs...)
	})
	if err != nil {
		return nil, nil, err
	}

	uf := newUnionFind(n)
	feats := newFeatCache(d.budget(4), func(i int) []uint64 {
		t, _ := ds.Samples[i].GetString(d.textKey)
		return wordShingles(t, d.shingle)
	}, func(v []uint64) int64 { return int64(len(v)*8 + 64) })
	verify := func(i, j int) bool {
		return jaccard(feats.get(i), feats.get(j)) >= d.threshold
	}
	err = forEachBucket(lsh, func(group []spill.Pair) {
		verifyGroup(uf, group, verify)
	})
	if err != nil {
		return nil, nil, err
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return featureless[i] }, uf)
	kept, pairs := collapse(ds, uf)
	d.record(lsh.Stats())
	return kept, pairs, nil
}
