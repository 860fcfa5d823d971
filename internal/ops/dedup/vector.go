package dedup

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
	"repro/internal/text"
)

func init() {
	ops.Register("vector_deduplicator", ops.CategoryDeduplicator, "general",
		func(p ops.Params) (ops.OP, error) {
			return &vectorDedup{
				textKey:   p.String("text_key", "text"),
				dim:       p.Int("dim", 256),
				threshold: p.Float("cosine_threshold", 0.9),
				planes:    p.Int("planes", 16),
			}, nil
		})
}

// vectorDedup is the "vector-based" comparison method of Table 1: each
// document becomes a hashed term-frequency vector; random-hyperplane
// signatures generate candidates; candidates are verified by exact cosine
// similarity.
type vectorDedup struct {
	spillState
	textKey   string
	dim       int
	threshold float64
	planes    int
}

var _ ops.Spiller = (*vectorDedup)(nil)

func (d *vectorDedup) Name() string { return "vector_deduplicator" }

// vectorize builds the L2-normalized hashed TF vector of t; ok is false
// when t has no words (the zero vector).
func (d *vectorDedup) vectorize(t string) (v []float64, ok bool) {
	v = make([]float64, d.dim)
	words := text.WordsLower(t)
	if len(words) == 0 {
		return v, false
	}
	for _, w := range words {
		v[int(hash64(w)%uint64(d.dim))]++
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range v {
			v[i] /= norm
		}
	}
	return v, true
}

// planeSignature computes the random-hyperplane bit signature of v. The
// hyperplanes are pseudo-random unit-ish vectors derived from splitmix64,
// fixed across the dataset.
func (d *vectorDedup) planeSignature(v []float64) uint32 {
	var sig uint32
	for p := 0; p < d.planes; p++ {
		var dot float64
		for i, x := range v {
			if x == 0 {
				continue
			}
			h := splitmix64(uint64(p)*0x9e3779b97f4a7c15 + uint64(i))
			// Map the hash to a pseudo-random coefficient in [-1, 1).
			coef := float64(int64(h))/math.MaxInt64 - 0
			dot += x * coef
		}
		if dot >= 0 {
			sig |= 1 << uint(p)
		}
	}
	return sig
}

func cosineVec(a, b []float64) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot
}

// Record encoding in the bucket table: the value carries the document
// index shifted left one bit, with bit 0 marking a "home" record (the
// doc's own signature bucket) versus a "virtual" one (a one-bit neighbor
// probe). Candidates are identical signatures plus signatures differing
// by one bit (near-misses across a single hyperplane), and a candidate
// pair is enumerated exactly once: home-home pairs from the smaller
// index, home-virtual pairs only when the home index is smaller.
const vectorHomeFlag = 1

// Dedup streams home and neighbor-probe records into an LSH bucket
// table, bounded by the op's spill budget (in memory without one),
// instead of retaining every TF vector; verification recomputes the
// vectors of candidate documents through a feature cache bounded by the
// same budget.
func (d *vectorDedup) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	n := ds.Len()
	lsh := spill.NewLSH(d.spec.Dir, int64(n)*int64(d.planes+1), d.budget(2))
	defer lsh.Close()
	featureless := make([]bool, n)
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		t, _ := s.GetString(d.textKey)
		v, ok := d.vectorize(t)
		if !ok {
			featureless[i] = true
			return nil
		}
		sig := d.planeSignature(v)
		var buf [maxStackBands]spill.Pair
		recs := append(buf[:0], spill.Pair{K: uint64(sig), V: uint64(i)<<1 | vectorHomeFlag})
		for p := 0; p < d.planes; p++ {
			recs = append(recs, spill.Pair{K: uint64(sig ^ (1 << uint(p))), V: uint64(i) << 1})
		}
		return lsh.Add(recs...)
	})
	if err != nil {
		return nil, nil, err
	}

	uf := newUnionFind(n)
	feats := newFeatCache(d.budget(4), func(i int) []float64 {
		t, _ := ds.Samples[i].GetString(d.textKey)
		v, _ := d.vectorize(t)
		return v
	}, func(v []float64) int64 { return int64(len(v)*8 + 48) })
	verify := func(i, j int) bool {
		return cosineVec(feats.get(i), feats.get(j)) >= d.threshold
	}
	err = forEachBucket(lsh, func(group []spill.Pair) {
		verifyFlaggedGroup(uf, group, verify)
	})
	if err != nil {
		return nil, nil, err
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return featureless[i] }, uf)
	kept, pairs := collapse(ds, uf)
	d.record(lsh.Stats())
	return kept, pairs, nil
}

// verifyFlaggedGroup enumerates candidate pairs within one signature
// group: for every home record, every other record with a larger
// document index is a candidate. That yields home-home pairs once each
// and home-virtual pairs exactly when the home index is smaller.
func verifyFlaggedGroup(uf *unionFind, group []spill.Pair, verify func(i, j int) bool) {
	for x := range group {
		if group[x].V&vectorHomeFlag == 0 {
			continue
		}
		i := int(group[x].V >> 1)
		for y := range group {
			j := int(group[y].V >> 1)
			if j <= i {
				continue
			}
			if uf.find(i) == uf.find(j) {
				continue
			}
			if verify(i, j) {
				uf.union(i, j)
			}
		}
	}
}
