package dedup

import (
	"fmt"
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
)

func init() {
	ops.Register("document_minhash_deduplicator", ops.CategoryDeduplicator, "general,web",
		func(p ops.Params) (ops.OP, error) {
			threshold := p.Float("jaccard_threshold", 0.7)
			if !(threshold > 0 && threshold <= 1) {
				return nil, fmt.Errorf("jaccard_threshold must be in (0, 1], got %v", threshold)
			}
			// Unset bands / rows_per_band (0) are derived from the
			// threshold; explicit ones must be positive.
			bands, rows := p.Int("bands", 0), p.Int("rows_per_band", 0)
			_, setBands := p["bands"]
			_, setRows := p["rows_per_band"]
			if (setBands && bands <= 0) || (setRows && rows <= 0) {
				return nil, fmt.Errorf("bands and rows_per_band must be positive")
			}
			if p.Int("shingle_size", 5) <= 0 {
				return nil, fmt.Errorf("shingle_size must be positive")
			}
			bands, rows = deriveBanding(threshold, bands, rows)
			return &minhashDedup{
				textKey:   p.String("text_key", "text"),
				shingle:   p.Int("shingle_size", 5),
				bands:     bands,
				rows:      rows,
				threshold: threshold,
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

// maxHashedProbes bounds densification's hashed probes per empty bin;
// past it the bin takes the next occupied bin after it, so a signature
// terminates on any non-empty set and sparse sets stay cheap.
const maxHashedProbes = 16

// signature writes the one-permutation MinHash signature (Li, Owen &
// Zhang, 2012) of a shingle set into sig, whose length is the bin count
// k. Each shingle is hashed once: the hash's high 32 bits pick its bin by
// multiply-shift, so bins partition the hash range, and the hash itself
// is the value each bin minimises. Empty bins are then filled by optimal
// densification (Shrivastava, 2017): bin j copies the first occupied bin
// of its own probe sequence, which depends only on j, so
// P(sig_A[j] == sig_B[j]) stays the Jaccard similarity of A and B for
// every bin. An empty shingle set leaves every bin at ^0; callers route
// such documents to the featureless path instead.
func signature(shingles []uint64, sig []uint64) {
	k := uint64(len(sig))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	// Probes read the occupancy before densification, not bins already
	// filled by it, or every probe landing behind j would stop early.
	var occBuf [maxSignature / 64]uint64
	occ := occBuf[:]
	if len(sig) > maxSignature {
		occ = make([]uint64, (len(sig)+63)/64)
	}
	for _, sh := range shingles {
		h := splitmix64(sh)
		b := (h >> 32) * k >> 32
		occ[b>>6] |= 1 << (b & 63)
		sig[b] = min(sig[b], h)
	}
	filled := 0
	for _, w := range occ {
		filled += bits.OnesCount64(w)
	}
	if filled == 0 || filled == len(sig) {
		return
	}
	// Visit the empty bins a bitmap word at a time: a per-bin occupancy
	// branch would mispredict on every other bin.
	for w := range occ {
		empty := ^occ[w]
		if rest := len(sig) - w*64; rest < 64 {
			empty &= 1<<max(rest, 0) - 1
		}
		for ; empty != 0; empty &= empty - 1 {
			j := w*64 + bits.TrailingZeros64(empty)
			sig[j] = sig[donorBin(occ, len(sig), j)]
		}
	}
}

// donorBin returns the bin that empty bin j copies: the first occupied
// bin (per the bitmap occ over k bins) among maxHashedProbes hashed probes
// seeded by j, four per hash by multiply-shift on each 16-bit quarter,
// else the next occupied bin after j, found a bitmap word at a time. At
// least one bin must be occupied.
func donorBin(occ []uint64, k, j int) int {
	x := uint64(j) * 0x9e3779b97f4a7c15
	for range maxHashedProbes / 4 {
		x = splitmix64(x)
		// All four probes at once, the first hit picked from a mask:
		// one branch per hash instead of one per probe.
		var probe [4]uint64
		hits := 0
		for q := range probe {
			b := (x >> (16 * q) & 0xffff) * uint64(k) >> 16
			probe[q] = b
			hits |= int(occ[b>>6]>>(b&63)&1) << q
		}
		if hits != 0 {
			return int(probe[bits.TrailingZeros(uint(hits))])
		}
	}
	for b := j + 1; ; b = (b | 63) + 1 {
		if b >= k {
			b = 0
		}
		if w := occ[b>>6] >> (b & 63); w != 0 {
			return b + bits.TrailingZeros64(w)
		}
	}
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
		var sigBuf [maxSignature]uint64
		var sig []uint64
		if k := d.signatureSize(); k <= maxSignature {
			sig = sigBuf[:k]
		} else {
			sig = make([]uint64, k)
		}
		signature(sh, sig)
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
