// Package dedup implements the Deduplicator operators: exact hashing,
// MinHash-LSH and SimHash near-duplicate detection, and a hashed TF-vector
// cosine deduplicator — the "hash-based and vector-based" methods named in
// Table 1. All deduplicators keep the first occurrence of each duplicate
// cluster and report the removed (dropped, kept) pairs for the tracer.
package dedup

import (
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/spill"
	"repro/internal/text"
)

// spillState is embedded by every deduplicator to satisfy ops.Spiller.
// Each deduplicator has one index path built on internal/spill: the
// planner hands each dedup node a slice of the -target-mem-mb budget and
// the index structures spill to disk when they outgrow it; with no
// budget the same structures stay in memory.
type spillState struct {
	spec  ops.SpillSpec
	stats ops.SpillStats
}

func (s *spillState) ConfigureSpill(spec ops.SpillSpec) { s.spec = spec }

func (s *spillState) SpillStats() ops.SpillStats { return s.stats }

// budget returns the share 1/div of the op's spill budget for one index
// structure: 0 (unbounded, in memory) without a spill directory or
// budget, and never less than 1 byte when a budget is set.
func (s *spillState) budget(div int64) int64 {
	if s.spec.Dir == "" || s.spec.BudgetBytes <= 0 {
		return 0
	}
	return max(s.spec.BudgetBytes/div, 1)
}

// record captures the spill structures' accounting for telemetry.
func (s *spillState) record(st spill.Stats) {
	s.stats = ops.SpillStats{Spilled: st.Runs > 0, Runs: st.Runs, SpilledBytes: st.Bytes}
}

// verifyGroup checks every candidate pair in one bucket (records whose
// values are document indexes, ascending), consulting the union-find
// roots before the similarity verify so already-merged pairs are never
// re-checked. This replaces the old per-run checked-pair map, which grew
// O(n^2) on duplicate-heavy corpora — the exact inputs dedup exists for.
func verifyGroup(uf *unionFind, group []spill.Pair, verify func(i, j int) bool) {
	for x := 0; x < len(group); x++ {
		for y := x + 1; y < len(group); y++ {
			i, j := int(group[x].V), int(group[y].V)
			if uf.find(i) == uf.find(j) {
				continue
			}
			if verify(i, j) {
				uf.union(i, j)
			}
		}
	}
}

// mergeFeatureless unions documents that yield no features (no words, so
// no shingles, fingerprints or TF mass) when their raw text under
// textKey is byte-identical. Near-duplicate similarity is undefined on
// empty feature sets, but exact-duplicate featureless docs — empty
// strings, punctuation-only noise — must still merge, exactly as
// document_deduplicator merges them; distinct featureless texts stay
// separate.
func mergeFeatureless(ds *dataset.Dataset, textKey string, featureless func(int) bool, uf *unionFind) {
	var first map[uint64]int
	for i := 0; i < ds.Len(); i++ {
		if !featureless(i) {
			continue
		}
		t, _ := ds.Samples[i].GetString(textKey)
		h := hash64(t)
		if first == nil {
			first = make(map[uint64]int)
		}
		if j, ok := first[h]; ok {
			uf.union(j, i)
		} else {
			first[h] = i
		}
	}
}

// forEachBucket visits the bucket table one partition at a time and
// hands each run of two or more equal keys — one candidate group, in
// ascending value order — to fn. fn must not retain the group.
func forEachBucket(lsh *spill.LSH, fn func(group []spill.Pair)) error {
	return lsh.ForEachPartition(func(pairs []spill.Pair) error {
		for s := 0; s < len(pairs); {
			e := s + 1
			for e < len(pairs) && pairs[e].K == pairs[s].K {
				e++
			}
			if e-s >= 2 {
				fn(pairs[s:e])
			}
			s = e
		}
		return nil
	})
}

// featCache is a FIFO cache for per-document features recomputed on the
// verification path (shingle sets, TF vectors). It holds at most budget
// bytes (floor 64 KiB); a budget <= 0 keeps every feature it loads.
// Loaders are pure, so hits versus misses never change results —
// eviction order only affects speed.
type featCache[T any] struct {
	budget int64
	used   int64
	m      map[int]T
	order  []int
	head   int
	load   func(int) T
	size   func(T) int64
}

func newFeatCache[T any](budget int64, load func(int) T, size func(T) int64) *featCache[T] {
	if budget > 0 {
		budget = max(budget, 1<<16)
	}
	return &featCache[T]{budget: budget, m: make(map[int]T), load: load, size: size}
}

func (c *featCache[T]) get(i int) T {
	if v, ok := c.m[i]; ok {
		return v
	}
	v := c.load(i)
	c.m[i] = v
	if c.budget <= 0 {
		return v
	}
	c.used += c.size(v)
	c.order = append(c.order, i)
	for c.used > c.budget && c.head < len(c.order) {
		old := c.order[c.head]
		c.head++
		if ov, ok := c.m[old]; ok {
			c.used -= c.size(ov)
			delete(c.m, old)
		}
	}
	if c.head > len(c.order)/2 && c.head > 1024 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	return v
}

// unionFind is a standard disjoint-set with path compression, used to
// cluster duplicate candidates.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	// Keep the smaller index as root so "first occurrence wins".
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// collapse builds the deduplicated dataset from a union-find over sample
// indexes: the lowest index of each cluster is kept.
func collapse(d *dataset.Dataset, uf *unionFind) (*dataset.Dataset, []ops.DupPair) {
	kept := make([]*sample.Sample, 0, d.Len())
	var pairs []ops.DupPair
	for i, s := range d.Samples {
		root := uf.find(i)
		if root == i {
			kept = append(kept, s)
			continue
		}
		pairs = append(pairs, ops.DupPair{Dropped: i, Kept: root})
	}
	return dataset.New(kept), pairs
}

// splitmix64 is the standard avalanche mixer: it hashes shingles into
// MinHash bins and values, and folds signature rows into band keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash64 is FNV-64a over s (inline, allocation-free).
func hash64(s string) uint64 { return text.HashString(s) }

func normalizeForHash(t string, lowercase, ignorePunct bool) string {
	if lowercase {
		t = strings.ToLower(t)
	}
	if ignorePunct {
		t = strings.Map(func(r rune) rune {
			if unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsSpace(r) {
				return r
			}
			return -1
		}, t)
	}
	return strings.Join(strings.Fields(t), " ")
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// normalizedHash streams hash64(normalizeForHash(t, ...)) without
// materializing the normalized string: runes are lower-cased and
// punctuation-filtered on the fly, whitespace runs collapse to single
// separators, and the FNV-64a state advances byte by byte. It returns
// exactly the same value as hashing the materialized normalization — the
// equivalence test pins this — while allocating nothing.
func normalizedHash(t string, lowercase, ignorePunct bool) uint64 {
	h := uint64(fnvOffset)
	pendingSep := false // a space is owed before the next kept rune
	started := false    // at least one kept rune emitted (no leading sep)
	var enc [4]byte
	for i := 0; i < len(t); {
		r, size := utf8.DecodeRuneInString(t[i:])
		invalid := r == utf8.RuneError && size == 1 // raw invalid byte, not a real U+FFFD
		i += size
		if invalid {
			// strings.ToLower / strings.Map coerce invalid bytes to
			// U+FFFD; without either transforming pass, the bytes flow
			// through Fields/Join untouched. Mirror both behaviors.
			if ignorePunct {
				continue // U+FFFD is neither letter, digit nor space
			}
			if lowercase {
				r = 0xFFFD
			} else {
				if pendingSep {
					h = (h ^ ' ') * fnvPrime
					pendingSep = false
				}
				started = true
				h = (h ^ uint64(t[i-1])) * fnvPrime
				continue
			}
		}
		if lowercase {
			r = unicode.ToLower(r)
		}
		if unicode.IsSpace(r) {
			pendingSep = started
			continue
		}
		if ignorePunct && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		if pendingSep {
			h = (h ^ ' ') * fnvPrime
			pendingSep = false
		}
		started = true
		if r < 0x80 {
			h = (h ^ uint64(r)) * fnvPrime
			continue
		}
		n := utf8.EncodeRune(enc[:], r)
		for i := 0; i < n; i++ {
			h = (h ^ uint64(enc[i])) * fnvPrime
		}
	}
	return h
}

// Shingle hashing: each token hashes independently (FNV over its bytes
// plus a separator fold, so "ab c" and "a bc" differ exactly as the
// joined text did), and every n-window combines token hashes through a
// seeded splitmix-based rolling polynomial — no per-shingle string join.
const shingleB = 0x9e3779b97f4a7c15

// wordShingles returns the hashed word n-gram shingle set of t, writing
// token scratch through the pooled segmenter.
func wordShingles(t string, n int) []uint64 {
	seg := text.GetSegmenter()
	words := seg.WordsLower(t)
	out := shinglesOf(words, n)
	text.PutSegmenter(seg)
	return out
}

// shinglesOf hashes the n-gram windows of words. Shingle values are
// equal exactly when the windows' token sequences are equal (modulo
// 64-bit hash collisions), the property MinHash and the duplicate
// verifier rely on; the dup-pair equivalence test checks the end-to-end
// output matches the joined-string implementation on seeded corpora.
func shinglesOf(words []string, n int) []uint64 {
	if len(words) == 0 {
		return nil
	}
	if n < 1 {
		n = 1 // defensive: factories validate, but a zero window must not panic
	}
	if len(words) < n {
		n = len(words)
	}
	out := make([]uint64, 0, len(words)-n+1)
	bPow := uint64(1)
	for i := 1; i < n; i++ {
		bPow *= shingleB
	}
	// ring holds the window's token hashes, so each word is hashed once:
	// the hash leaving the window is read back, not recomputed.
	var stack [16]uint64
	ring := stack[:]
	if n > len(stack) {
		ring = make([]uint64, n)
	}
	var h uint64
	pos := 0
	for i, w := range words {
		t := splitmix64(text.HashString(w))
		h = h*shingleB + t
		ring[pos] = t
		if pos++; pos == n {
			pos = 0
		}
		if i >= n-1 {
			out = append(out, splitmix64(h))
			h -= ring[pos] * bPow // pos now holds words[i-n+1]
		}
	}
	return out
}

// jaccard computes the Jaccard similarity of two shingle sets.
func jaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[uint64]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	inter := 0
	bset := make(map[uint64]struct{}, len(b))
	for _, x := range b {
		if _, dup := bset[x]; dup {
			continue
		}
		bset[x] = struct{}{}
		if _, ok := set[x]; ok {
			inter++
		}
	}
	union := len(set) + len(bset) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func hamming(a, b uint64) int { return bits.OnesCount64(a ^ b) }
