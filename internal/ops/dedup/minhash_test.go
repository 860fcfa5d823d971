package dedup

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ops"
)

// plantedPair returns two shingle sets of n elements each whose Jaccard
// similarity is as close to j as n allows, and that similarity. Shingles
// are drawn from the counter *next: signature hashes every shingle, so
// distinct values are all a pair needs.
func plantedPair(next *uint64, n int, j float64) (a, b []uint64, jac float64) {
	c := min(n, int(math.Round(2*j*float64(n)/(1+j))))
	a, b = make([]uint64, 0, n), make([]uint64, 0, n)
	for range c {
		*next++
		a, b = append(a, *next), append(b, *next)
	}
	for range n - c {
		*next += 2
		a, b = append(a, *next-1), append(b, *next)
	}
	return a, b, float64(c) / float64(2*n-c)
}

// bandsCollide reports whether two signatures agree on every row of at
// least one of b bands of r rows.
func bandsCollide(x, y []uint64, b, r int) bool {
	for band := range b {
		if slices.Equal(x[band*r:(band+1)*r], y[band*r:(band+1)*r]) {
			return true
		}
	}
	return false
}

// TestMinhashSCurve pins the one-permutation signature's LSH behaviour
// at the default banding: over fixed-seed planted pairs, the share that
// collides in at least one band must match 1 − (1 − Jʳ)ᵇ within ±0.02
// for sets of 30 (mostly densified bins), 300 and 1,000 shingles at J
// 0.5–0.9. Each cell runs enough pairs for a binomial standard error of
// 0.005, so the bound is four of them. Two 30-shingle cells also run the
// k-permutation reference on the same pairs, which must meet the same
// bound.
func TestMinhashSCurve(t *testing.T) {
	b, r := deriveBanding(0.7, 0, 0)
	k := b * r
	refCells := map[[2]int]bool{{30, 7}: true, {30, 8}: true}
	var next uint64
	sa, sb := make([]uint64, k), make([]uint64, k)
	for _, n := range []int{30, 300, 1000} {
		for tenths := 5; tenths <= 9; tenths++ {
			_, _, jac := plantedPair(&next, n, float64(tenths)/10)
			want := sCurve(jac, b, r)
			trials := max(200, int(want*(1-want)/(0.005*0.005)))
			oph, ref := 0, 0
			withRef := refCells[[2]int{n, tenths}]
			for range trials {
				a, c, _ := plantedPair(&next, n, float64(tenths)/10)
				signature(a, sa)
				signature(c, sb)
				if bandsCollide(sa, sb, b, r) {
					oph++
				}
				if withRef && bandsCollide(refSignature(a, k), refSignature(c, k), b, r) {
					ref++
				}
			}
			got := float64(oph) / float64(trials)
			t.Logf("n=%4d J=%.3f formula %.3f OPH %.3f over %d pairs", n, jac, want, got, trials)
			if math.Abs(got-want) > 0.02 {
				t.Errorf("n=%d J=%.3f: OPH collides %.3f, formula %.3f", n, jac, got, want)
			}
			if withRef {
				gotRef := float64(ref) / float64(trials)
				t.Logf("n=%4d J=%.3f k-permutation %.3f", n, jac, gotRef)
				if math.Abs(gotRef-want) > 0.02 {
					t.Errorf("n=%d J=%.3f: k-permutation collides %.3f, formula %.3f", n, jac, gotRef, want)
				}
			}
		}
	}
}

// FuzzMinhashSignature: for any shingle set and bin count the signature
// terminates, fills every bin of a non-empty set with the hash of one of
// its shingles, and does not depend on shingle order or repetition.
func FuzzMinhashSignature(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint8(114))
	f.Add([]byte("a"), uint8(1))
	f.Add(make([]byte, 8), uint8(200))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8) {
		k := int(kb)%(2*maxSignature) + 1
		var shingles []uint64
		for len(data) >= 8 {
			shingles = append(shingles, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		sig := make([]uint64, k)
		signature(shingles, sig)
		if len(shingles) == 0 {
			for j, v := range sig {
				if v != ^uint64(0) {
					t.Fatalf("empty set: bin %d = %x", j, v)
				}
			}
			return
		}
		hashes := make(map[uint64]bool, len(shingles))
		for _, sh := range shingles {
			hashes[splitmix64(sh)] = true
		}
		for j, v := range sig {
			if !hashes[v] {
				t.Fatalf("bin %d of %d = %x is no shingle's hash", j, k, v)
			}
		}
		// Reversed, with every shingle repeated.
		shuffled := make([]uint64, 0, 2*len(shingles))
		for i := len(shingles) - 1; i >= 0; i-- {
			shuffled = append(shuffled, shingles[i], shingles[i])
		}
		again := make([]uint64, k)
		signature(shuffled, again)
		if !slices.Equal(sig, again) {
			t.Fatalf("signature depends on shingle order or repetition")
		}
	})
}

// TestMinhashShinglelessDocs pins the empty-set path: a signature of no
// shingles terminates and leaves every bin empty, and documents with no
// words never reach it — they take the featureless path, where only
// byte-identical texts merge.
func TestMinhashShinglelessDocs(t *testing.T) {
	sig := make([]uint64, 114)
	signature(nil, sig)
	for j, v := range sig {
		if v != ^uint64(0) {
			t.Fatalf("bin %d = %x after an empty signature", j, v)
		}
	}
	d := build(t, "document_minhash_deduplicator", nil)
	texts := []string{"", "!!! ???", "", "...", "!!! ???"}
	kept, pairs, err := d.Dedup(dataset.FromTexts(texts), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []ops.DupPair{{Dropped: 2, Kept: 0}, {Dropped: 4, Kept: 1}}
	if kept.Len() != 3 || !slices.Equal(pairs, want) {
		t.Fatalf("kept %d, pairs %v; want 3 and %v", kept.Len(), pairs, want)
	}
}

// TestDerivedBanding pins the banding derived from jaccard_threshold when
// bands and rows_per_band are unset.
func TestDerivedBanding(t *testing.T) {
	for _, tc := range []struct {
		threshold   float64
		bands, rows int
	}{
		{0.5, 18, 3},
		{0.6, 17, 4},
		{0.7, 19, 6},
		{0.8, 13, 8},
		{0.9, 9, 14},
	} {
		d := build(t, "document_minhash_deduplicator", ops.Params{"jaccard_threshold": tc.threshold}).(*minhashDedup)
		if d.bands != tc.bands || d.rows != tc.rows {
			t.Errorf("threshold %v: %d×%d, want %d×%d", tc.threshold, d.bands, d.rows, tc.bands, tc.rows)
		}
		if p := sCurve(tc.threshold, d.bands, d.rows); p < minDetect {
			t.Errorf("threshold %v: P(detect) %.3f < %v", tc.threshold, p, minDetect)
		}
	}
	// The default threshold is 0.7.
	if d := build(t, "document_minhash_deduplicator", nil).(*minhashDedup); d.bands != 19 || d.rows != 6 {
		t.Errorf("default: %d×%d, want 19×6", d.bands, d.rows)
	}
}

// TestExplicitBanding: set bands / rows_per_band are used as given; with
// only one set, the other is derived around it.
func TestExplicitBanding(t *testing.T) {
	d := build(t, "document_minhash_deduplicator", ops.Params{"bands": 16, "rows_per_band": 8}).(*minhashDedup)
	if d.bands != 16 || d.rows != 8 {
		t.Fatalf("explicit 16×8 became %d×%d", d.bands, d.rows)
	}
	d = build(t, "document_minhash_deduplicator", ops.Params{"bands": 300, "rows_per_band": 1}).(*minhashDedup)
	if d.bands != 300 || d.rows != 1 {
		t.Fatalf("explicit 300×1 became %d×%d", d.bands, d.rows)
	}
	d = build(t, "document_minhash_deduplicator", ops.Params{"rows_per_band": 4}).(*minhashDedup)
	if d.rows != 4 || sCurve(0.7, d.bands, 4) < minDetect || sCurve(0.7, d.bands-1, 4) >= minDetect {
		t.Fatalf("rows_per_band 4 at 0.7: %d×%d, want the least bands reaching %v", d.bands, d.rows, minDetect)
	}
	d = build(t, "document_minhash_deduplicator", ops.Params{"bands": 10}).(*minhashDedup)
	if d.bands != 10 || sCurve(0.7, 10, d.rows) < minDetect {
		t.Fatalf("bands 10 at 0.7: %d×%d misses %v", d.bands, d.rows, minDetect)
	}
}

func TestMinhashThresholdRange(t *testing.T) {
	for _, bad := range []any{0, 0.0, -0.5, 1.01, 2, math.NaN()} {
		if _, err := ops.Build("document_minhash_deduplicator", ops.Params{"jaccard_threshold": bad}); err == nil {
			t.Errorf("jaccard_threshold %v accepted", bad)
		}
	}
	if _, err := ops.Build("document_minhash_deduplicator", ops.Params{"jaccard_threshold": 1}); err != nil {
		t.Errorf("jaccard_threshold 1 rejected: %v", err)
	}
}

// word returns the i-th word of an alphabet of distinct letter-only
// words, so every word is one token and one 1-gram shingle.
func word(i int) string {
	var sb strings.Builder
	sb.WriteByte('q')
	for {
		sb.WriteByte(byte('a' + i%26))
		i /= 26
		if i == 0 {
			return sb.String()
		}
	}
}

// plantedCorpus returns texts made of disjoint pairs of documents whose
// word sets have a planted Jaccard similarity spread over [lo, 1], with
// perBucket pairs in each 0.05-wide bucket. Pairs share no word with any
// other document.
func plantedCorpus(rng *rand.Rand, lo float64, perBucket int) []string {
	var texts []string
	next := 0
	fresh := func() string { next++; return word(next) }
	for bucket := int(math.Round(lo * 20)); bucket < 20; bucket++ {
		for range perBucket {
			j := (float64(bucket) + rng.Float64()) / 20
			n := 40 + rng.IntN(81)
			c := min(n, int(math.Round(2*j*float64(n)/(1+j))))
			var a, b []string
			for range c {
				w := fresh()
				a, b = append(a, w), append(b, w)
			}
			for range n - c {
				a, b = append(a, fresh()), append(b, fresh())
			}
			texts = append(texts, strings.Join(a, " "), strings.Join(b, " "))
		}
	}
	return texts
}

// simPair is one document pair with a non-zero exact Jaccard similarity.
type simPair struct {
	i, j int
	jac  float64
}

// allPairsJaccard is the recall oracle's ground truth: the exact Jaccard
// similarity of every document pair over its shingle set. Pairs that
// share no shingle are 0 and are not listed; the shingle → documents
// index finds every other pair.
func allPairsJaccard(sets [][]uint64) []simPair {
	docsOf := make(map[uint64][]int)
	for i, s := range sets {
		for _, sh := range s {
			if ds := docsOf[sh]; len(ds) == 0 || ds[len(ds)-1] != i {
				docsOf[sh] = append(ds, i)
			}
		}
	}
	seen := make(map[[2]int]bool)
	var out []simPair
	for _, ds := range docsOf {
		for x := range ds {
			for y := x + 1; y < len(ds); y++ {
				key := [2]int{ds[x], ds[y]}
				if !seen[key] {
					seen[key] = true
					out = append(out, simPair{ds[x], ds[y], jaccard(sets[ds[x]], sets[ds[y]])})
				}
			}
		}
	}
	return out
}

// TestMinhashRecallOracle runs the minhash op at its derived banding over
// planted pairs and checks it against all-pairs exact Jaccard plus
// union-find: every pair it merges must be connected at or above the
// threshold (precision 1), and in every 0.05-wide bucket of J at or above
// the threshold it must find at least 85 % of the planted pairs.
func TestMinhashRecallOracle(t *testing.T) {
	const perBucket = 100
	texts := plantedCorpus(rand.New(rand.NewPCG(3, 4)), 0.35, perBucket)
	ds := dataset.FromTexts(texts)
	sets := make([][]uint64, len(texts))
	for i, s := range texts {
		sets[i] = wordShingles(s, 1)
	}
	truth := allPairsJaccard(sets)
	for _, threshold := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		t.Run(fmt.Sprint(threshold), func(t *testing.T) {
			d := build(t, "document_minhash_deduplicator", ops.Params{"jaccard_threshold": threshold, "shingle_size": 1})
			_, pairs, err := d.Dedup(ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := newUnionFind(len(texts))
			for _, p := range pairs {
				got.union(p.Dropped, p.Kept)
			}
			want := newUnionFind(len(texts))
			for _, p := range truth {
				if p.jac >= threshold {
					want.union(p.i, p.j)
				}
			}
			for _, p := range pairs {
				if want.find(p.Dropped) != want.find(p.Kept) {
					t.Fatalf("merged %d into %d, which are not similar at %v", p.Dropped, p.Kept, threshold)
				}
			}
			found := map[int]int{}
			total := map[int]int{}
			for _, p := range truth {
				if p.jac < threshold {
					continue
				}
				bucket := int(p.jac*20 + 1e-9) // J exactly at a bucket edge belongs above it
				total[bucket]++
				if got.find(p.i) == got.find(p.j) {
					found[bucket]++
				}
			}
			for bucket := int(math.Round(threshold * 20)); bucket <= 20; bucket++ {
				if total[bucket] == 0 {
					continue
				}
				recall := float64(found[bucket]) / float64(total[bucket])
				t.Logf("J in [%.2f, %.2f): recall %.3f over %d pairs", float64(bucket)/20, float64(bucket+1)/20, recall, total[bucket])
				if recall < 0.85 {
					t.Errorf("J in [%.2f, %.2f): recall %.3f < 0.85", float64(bucket)/20, float64(bucket+1)/20, recall)
				}
			}
		})
	}
}
