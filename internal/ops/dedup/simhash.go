package dedup

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
	"repro/internal/text"
)

func init() {
	ops.Register("document_simhash_deduplicator", ops.CategoryDeduplicator, "general,web",
		func(p ops.Params) (ops.OP, error) {
			if p.Int("ngram", 3) <= 0 {
				return nil, fmt.Errorf("ngram must be positive")
			}
			return &simhashDedup{
				textKey:     p.String("text_key", "text"),
				ngram:       p.Int("ngram", 3),
				maxDistance: p.Int("max_distance", 3),
			}, nil
		})
}

// simhashDedup detects near-duplicates with Charikar SimHash (cited as
// [14] in the paper): 64-bit fingerprints from weighted word n-gram
// features, candidates generated by the pigeonhole trick over 16-bit
// chunks, verified by Hamming distance.
type simhashDedup struct {
	spillState
	textKey     string
	ngram       int
	maxDistance int
}

var _ ops.Spiller = (*simhashDedup)(nil)

func (d *simhashDedup) Name() string { return "document_simhash_deduplicator" }

// fingerprint computes the 64-bit SimHash of the text's word n-grams,
// hashing windows through the rolling shingle hash (no gram joins).
func (d *simhashDedup) fingerprint(t string) (uint64, bool) {
	seg := text.GetSegmenter()
	words := seg.WordsLower(t)
	if len(words) == 0 {
		text.PutSegmenter(seg)
		return 0, false
	}
	grams := shinglesOf(words, d.ngram)
	text.PutSegmenter(seg)
	var acc [64]int
	for _, h := range grams {
		for b := 0; b < 64; b++ {
			if h&(1<<uint(b)) != 0 {
				acc[b]++
			} else {
				acc[b]--
			}
		}
	}
	var fp uint64
	for b := 0; b < 64; b++ {
		if acc[b] > 0 {
			fp |= 1 << uint(b)
		}
	}
	return fp, true
}

// chunkKey folds the pigeonhole chunk index into the 16-bit chunk value
// so all four chunk spaces share one key domain — the bucket table
// groups by the key alone.
func chunkKey(fp uint64, chunk int) uint64 {
	return uint64(chunk)<<16 | uint64(uint16(fp>>uint(chunk*16)))
}

// Dedup streams each fingerprint's four chunk keys into an LSH bucket
// table, bounded by the op's spill budget (in memory without one). The
// fingerprints stay resident: 8 bytes per document is the irreducible
// verify state.
func (d *simhashDedup) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	n := ds.Len()
	fps := make([]uint64, n)
	valid := make([]bool, n)
	lsh := spill.NewLSH(d.spec.Dir, int64(n)*4, d.budget(2))
	defer lsh.Close()
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		t, _ := s.GetString(d.textKey)
		fps[i], valid[i] = d.fingerprint(t)
		if !valid[i] {
			return nil
		}
		var recs [4]spill.Pair
		for chunk := range recs {
			recs[chunk] = spill.Pair{K: chunkKey(fps[i], chunk), V: uint64(i)}
		}
		return lsh.Add(recs[:]...)
	})
	if err != nil {
		return nil, nil, err
	}

	// Pigeonhole: with max distance <= 3 and 4 chunks of 16 bits, at least
	// one chunk is identical between any near-duplicate pair.
	uf := newUnionFind(n)
	verify := func(i, j int) bool {
		return hamming(fps[i], fps[j]) <= d.maxDistance
	}
	err = forEachBucket(lsh, func(group []spill.Pair) {
		verifyGroup(uf, group, verify)
	})
	if err != nil {
		return nil, nil, err
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return !valid[i] }, uf)
	kept, pairs := collapse(ds, uf)
	d.record(lsh.Stats())
	return kept, pairs, nil
}
