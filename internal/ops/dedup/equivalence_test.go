package dedup

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/text"
)

// refHash64 is the reference FNV-64a through hash/fnv, which the inline
// implementation must match bit for bit.
func refHash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestInlineFNVMatchesHashFnv(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", "\x00\xff", "中文 mixed", strings.Repeat("x", 1000)} {
		if got, want := hash64(s), refHash64(s); got != want {
			t.Fatalf("hash64(%q) = %x, hash/fnv gives %x", s, got, want)
		}
	}
}

// TestNormalizedHashMatchesMaterialized pins the streaming signature
// hash to the reference path: hash the materialized normalization.
func TestNormalizedHashMatchesMaterialized(t *testing.T) {
	cases := []string{
		"",
		"Hello,  World!",
		"  leading and trailing\t\n ",
		"ALL CAPS with 123 and £$%^ symbols",
		"中文标点，测试。 Mixed 文本！",
		"tabs\tand\nnewlines\r\nand  runs   of spaces",
		"punctuation-only !!! ??? ...",
		"naïve FAÇADE Über ÇÉ",
		"İstanbul DİACRITIC edge",
		"invalid utf8 \xff\xfe bytes",
		strings.Repeat("Word. ", 500),
	}
	for _, lc := range []bool{true, false} {
		for _, ip := range []bool{true, false} {
			for _, s := range cases {
				want := refHash64(normalizeForHash(s, lc, ip))
				got := normalizedHash(s, lc, ip)
				if got != want {
					t.Fatalf("normalizedHash(%q, lc=%v, ip=%v) = %x, materialized path gives %x",
						s, lc, ip, got, want)
				}
			}
		}
	}
	// And across a whole seeded corpus.
	d := corpus.Web(corpus.Options{Docs: 300, Seed: 42})
	for _, s := range d.Samples {
		want := refHash64(normalizeForHash(s.Text, true, true))
		if got := normalizedHash(s.Text, true, true); got != want {
			t.Fatalf("corpus text diverges: %q", s.Text[:min(len(s.Text), 60)])
		}
	}
}

// refWordShingles is the former shingle implementation: FNV over the
// joined window text.
func refWordShingles(t string, n int) []uint64 {
	words := text.WordsLower(t)
	if len(words) < n {
		if len(words) == 0 {
			return nil
		}
		return []uint64{refHash64(strings.Join(words, " "))}
	}
	out := make([]uint64, 0, len(words)-n+1)
	for i := 0; i+n <= len(words); i++ {
		out = append(out, refHash64(strings.Join(words[i:i+n], " ")))
	}
	return out
}

// setEqualityFingerprint reduces a shingle multiset to (distinct count,
// window count) plus pairwise equality structure against another text's
// set — what Jaccard verification actually consumes.
func jaccardOf(a, b []uint64) float64 { return jaccard(a, b) }

// TestRollingShinglesPreserveJaccard: the rolling splitmix shingles must
// produce the same Jaccard similarity as the joined-string reference for
// every candidate pair of the seeded corpus — identical windows hash
// identical, distinct windows hash distinct (no observed collisions).
func TestRollingShinglesPreserveJaccard(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 120, Seed: 7, DupExact: 0.15, DupNear: 0.15})
	const n = 5
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j += 7 { // sampled pairs
			ti, tj := d.Samples[i].Text, d.Samples[j].Text
			ref := jaccardOf(refWordShingles(ti, n), refWordShingles(tj, n))
			got := jaccardOf(wordShingles(ti, n), wordShingles(tj, n))
			if ref != got {
				t.Fatalf("jaccard diverges for pair (%d,%d): ref %v, rolling %v", i, j, ref, got)
			}
		}
	}
}

// refSignature is the k-permutation MinHash signature the one-permutation
// signature replaced: k hash families chained through splitmix64, each
// shingle hashed once per family, each family keeping its minimum.
func refSignature(shingles []uint64, k int) []uint64 {
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

// refMinhash is the previous minhash deduplicator: joined-string FNV
// shingles, k-permutation signatures and a resident per-band bucket map.
type refMinhash struct{ minhashDedup }

func (d *refMinhash) Dedup(ds *dataset.Dataset, np int) (*dataset.Dataset, []ops.DupPair, error) {
	n := ds.Len()
	shingleSets := make([][]uint64, n)
	signatures := make([][]uint64, n)
	err := ds.MapIndexed(np, func(i int, s *sample.Sample) error {
		t, _ := s.GetString(d.textKey)
		shingleSets[i] = refWordShingles(t, d.shingle)
		signatures[i] = refSignature(shingleSets[i], d.signatureSize())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	uf := newUnionFind(n)
	checked := make(map[[2]int]struct{})
	for b := 0; b < d.bands; b++ {
		buckets := make(map[uint64][]int)
		for i := 0; i < n; i++ {
			if len(shingleSets[i]) == 0 {
				continue
			}
			h := uint64(b) * 0x9e3779b97f4a7c15
			for r := 0; r < d.rows; r++ {
				h = splitmix64(h ^ signatures[i][b*d.rows+r])
			}
			buckets[h] = append(buckets[h], i)
		}
		for _, members := range buckets {
			if len(members) < 2 {
				continue
			}
			for x := 0; x < len(members); x++ {
				for y := x + 1; y < len(members); y++ {
					i, j := members[x], members[y]
					key := [2]int{i, j}
					if _, done := checked[key]; done {
						continue
					}
					checked[key] = struct{}{}
					if jaccard(shingleSets[i], shingleSets[j]) >= d.threshold {
						uf.union(i, j)
					}
				}
			}
		}
	}
	kept, pairs := collapse(ds, uf)
	return kept, pairs, nil
}

// TestMinhashDupPairsMatchReference runs the shipped minhash dedup and
// the reference (joined-string shingles, k-permutation signatures) over
// seeded duplicate-heavy corpora and requires identical dup-pair output.
// The banding here uses short rows (rows_per_band=2, bands=32) so any
// pair at or above the verification threshold is a candidate with
// near-certainty under BOTH signature schemes — output equality then
// follows from jaccard preservation, without depending on which
// borderline pairs happen to collide in a band. (At the derived banding,
// candidate generation for pairs near the threshold is genuinely
// probabilistic and differs across hash families; that is inherent to
// LSH, not a property of the shingler or the signature.)
func TestMinhashDupPairsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 33, 77} {
		d := corpus.Web(corpus.Options{Docs: 250, Seed: seed, DupExact: 0.12, DupNear: 0.13})
		op, err := ops.Build("document_minhash_deduplicator",
			ops.Params{"rows_per_band": 2, "bands": 32})
		if err != nil {
			t.Fatal(err)
		}
		mh := op.(*minhashDedup)
		ref := &refMinhash{*mh}

		_, gotPairs, err := mh.Dedup(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, refPairs, err := ref.Dedup(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotPairs) != len(refPairs) {
			t.Fatalf("seed %d: %d dup pairs with rolling shingles, %d with reference",
				seed, len(gotPairs), len(refPairs))
		}
		for i := range gotPairs {
			if gotPairs[i] != refPairs[i] {
				t.Fatalf("seed %d: pair %d diverges: %+v vs %+v", seed, i, gotPairs[i], refPairs[i])
			}
		}
		if len(gotPairs) == 0 {
			t.Fatalf("seed %d: corpus produced no duplicates — test is vacuous", seed)
		}
	}
}

// TestDocumentDedupPairsMatchReference does the same for the exact
// deduplicator: the streaming signature hash must find exactly the
// duplicates the materialized normalization found.
func TestDocumentDedupPairsMatchReference(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 400, Seed: 9, DupExact: 0.2, DupNear: 0.1})
	op, err := ops.Build("document_deduplicator", nil)
	if err != nil {
		t.Fatal(err)
	}
	dd := op.(*documentDedup)
	_, pairs, err := dd.Dedup(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: group by materialized normalized text hash.
	first := map[uint64]int{}
	var refPairs []ops.DupPair
	for i, s := range d.Samples {
		h := refHash64(normalizeForHash(s.Text, dd.lowercase, dd.ignorePunct))
		if j, ok := first[h]; ok {
			refPairs = append(refPairs, ops.DupPair{Dropped: i, Kept: j})
			continue
		}
		first[h] = i
	}
	if len(pairs) != len(refPairs) || len(pairs) == 0 {
		t.Fatalf("%d pairs vs reference %d (must match and be non-zero)", len(pairs), len(refPairs))
	}
	for i := range pairs {
		if pairs[i] != refPairs[i] {
			t.Fatalf("pair %d diverges: %+v vs %+v", i, pairs[i], refPairs[i])
		}
	}
}

// The oracles below are resident-map implementations of each
// deduplicator: every feature stays in memory and candidates come from
// per-band (per-chunk, per-signature) hash maps. They share only the
// features (signatures, fingerprints, vectors), the union-find,
// mergeFeatureless and collapse with the shipped index path, so a defect
// in the bucket table, the first-holder index or the feature cache shows
// as a divergence.

// verifyMembers is the oracles' bucket check: every pair of members not
// already in one cluster is verified.
func verifyMembers(uf *unionFind, members []int, verify func(i, j int) bool) {
	for x := 0; x < len(members); x++ {
		for y := x + 1; y < len(members); y++ {
			i, j := members[x], members[y]
			if uf.find(i) != uf.find(j) && verify(i, j) {
				uf.union(i, j)
			}
		}
	}
}

func oracleDocument(d *documentDedup, ds *dataset.Dataset) (*dataset.Dataset, []ops.DupPair) {
	uf := newUnionFind(ds.Len())
	first := make(map[uint64]int, ds.Len())
	for i, s := range ds.Samples {
		h := d.Signature(s)
		if j, ok := first[h]; ok {
			uf.union(j, i)
			continue
		}
		first[h] = i
	}
	return collapse(ds, uf)
}

func oracleMinhash(d *minhashDedup, ds *dataset.Dataset) (*dataset.Dataset, []ops.DupPair) {
	n := ds.Len()
	shingleSets := make([][]uint64, n)
	signatures := make([][]uint64, n)
	for i, s := range ds.Samples {
		t, _ := s.GetString(d.textKey)
		shingleSets[i] = wordShingles(t, d.shingle)
		if len(shingleSets[i]) > 0 {
			signatures[i] = make([]uint64, d.signatureSize())
			signature(shingleSets[i], signatures[i])
		}
	}
	uf := newUnionFind(n)
	verify := func(i, j int) bool {
		return jaccard(shingleSets[i], shingleSets[j]) >= d.threshold
	}
	for b := 0; b < d.bands; b++ {
		buckets := make(map[uint64][]int)
		for i := 0; i < n; i++ {
			if len(shingleSets[i]) == 0 {
				continue
			}
			h := d.bandKey(signatures[i], b)
			buckets[h] = append(buckets[h], i)
		}
		for _, members := range buckets {
			verifyMembers(uf, members, verify)
		}
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return len(shingleSets[i]) == 0 }, uf)
	return collapse(ds, uf)
}

func oracleSimhash(d *simhashDedup, ds *dataset.Dataset) (*dataset.Dataset, []ops.DupPair) {
	n := ds.Len()
	fps := make([]uint64, n)
	valid := make([]bool, n)
	for i, s := range ds.Samples {
		t, _ := s.GetString(d.textKey)
		fps[i], valid[i] = d.fingerprint(t)
	}
	uf := newUnionFind(n)
	verify := func(i, j int) bool {
		return hamming(fps[i], fps[j]) <= d.maxDistance
	}
	for chunk := 0; chunk < 4; chunk++ {
		buckets := make(map[uint64][]int)
		for i := 0; i < n; i++ {
			if valid[i] {
				key := chunkKey(fps[i], chunk)
				buckets[key] = append(buckets[key], i)
			}
		}
		for _, members := range buckets {
			verifyMembers(uf, members, verify)
		}
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return !valid[i] }, uf)
	return collapse(ds, uf)
}

func oracleVector(d *vectorDedup, ds *dataset.Dataset) (*dataset.Dataset, []ops.DupPair) {
	n := ds.Len()
	vecs := make([][]float64, n)
	sigs := make([]uint32, n)
	empty := make([]bool, n)
	buckets := make(map[uint32][]int)
	for i, s := range ds.Samples {
		t, _ := s.GetString(d.textKey)
		var ok bool
		vecs[i], ok = d.vectorize(t)
		sigs[i] = d.planeSignature(vecs[i])
		empty[i] = !ok
		if ok {
			buckets[sigs[i]] = append(buckets[sigs[i]], i)
		}
	}
	uf := newUnionFind(n)
	check := func(i, j int) {
		if uf.find(i) != uf.find(j) && cosineVec(vecs[i], vecs[j]) >= d.threshold {
			uf.union(i, j)
		}
	}
	// Candidates: identical signatures, plus signatures differing by one
	// bit, each pair probed from its smaller index.
	for sig, members := range buckets {
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				check(members[x], members[y])
			}
		}
		for p := 0; p < d.planes; p++ {
			for _, i := range members {
				for _, j := range buckets[sig^(1<<uint(p))] {
					if i < j {
						check(i, j)
					}
				}
			}
		}
	}
	mergeFeatureless(ds, d.textKey, func(i int) bool { return empty[i] }, uf)
	return collapse(ds, uf)
}

// oracle runs the resident-map reference for op.
func oracle(t *testing.T, op ops.Deduplicator, ds *dataset.Dataset) (*dataset.Dataset, []ops.DupPair) {
	t.Helper()
	switch d := op.(type) {
	case *documentDedup:
		return oracleDocument(d, ds)
	case *minhashDedup:
		return oracleMinhash(d, ds)
	case *simhashDedup:
		return oracleSimhash(d, ds)
	case *vectorDedup:
		return oracleVector(d, ds)
	}
	t.Fatalf("no oracle for %s", op.Name())
	return nil, nil
}

// spillCases enumerates every dedup op with parameters and a corpus size
// that makes a tiny byte budget push its index to disk.
var spillCases = []struct {
	name   string
	params ops.Params
	docs   int
}{
	// The exact dedup's first-holder index flushes its delta at no fewer
	// than 1024 keys, so the corpus must exceed that for runs to reach
	// disk.
	{"document_deduplicator", nil, 3000},
	{"document_minhash_deduplicator", ops.Params{"rows_per_band": 2, "bands": 32}, 400},
	{"document_simhash_deduplicator", ops.Params{"max_distance": 8}, 400},
	{"vector_deduplicator", nil, 400},
}

// dedupAtBudget runs a fresh op under a spill budget and checks where its
// index lived: with budget 0 it must stay in memory and never create its
// spill directory; with a positive (tiny) budget it must spill.
func dedupAtBudget(t *testing.T, name string, params ops.Params, budget int64, ds *dataset.Dataset, np int) (ops.Deduplicator, *dataset.Dataset, []ops.DupPair) {
	t.Helper()
	op := build(t, name, params)
	spiller, ok := op.(ops.Spiller)
	if !ok {
		t.Fatalf("%s does not implement ops.Spiller", name)
	}
	dir := filepath.Join(t.TempDir(), "spill")
	spiller.ConfigureSpill(ops.SpillSpec{Dir: dir, BudgetBytes: budget})
	kept, pairs, err := op.Dedup(ds, np)
	if err != nil {
		t.Fatal(err)
	}
	st := spiller.SpillStats()
	if budget <= 0 {
		if st.Spilled || st.Runs != 0 || st.SpilledBytes != 0 {
			t.Fatalf("%s, budget %d: unbounded op spilled: %+v", name, budget, st)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s, budget %d: spill dir touched (stat err %v)", name, budget, err)
		}
	} else if !st.Spilled || st.Runs == 0 || st.SpilledBytes == 0 {
		t.Fatalf("%s, budget %d: budgeted op did not spill: %+v", name, budget, st)
	}
	return op, kept, pairs
}

// spillBudgets are the two budgets every op is checked at: unbounded
// (in memory) and 1 KiB (spilled).
var spillBudgets = []int64{0, 1 << 10}

// TestSpilledMatchesInMemory pins every deduplicator against its
// resident-map oracle at both budgets: over seeded duplicate-heavy
// corpora (featureless docs included), the op must keep the same samples
// and report the identical DupPair list whether its index stayed in
// memory or went to disk. Verification is pure and clusters are
// connected components under min-index roots, so the kept set and pair
// list are independent of where candidates came from.
func TestSpilledMatchesInMemory(t *testing.T) {
	for _, tc := range spillCases {
		t.Run(tc.name, func(t *testing.T) {
			d := corpus.Web(corpus.Options{Docs: tc.docs, Seed: 21, DupExact: 0.12, DupNear: 0.12})
			// Featureless docs ride along: identical empties must merge and
			// distinct punctuation-only docs must survive, spilled or not.
			ds := dataset.Concat(d, dataset.FromTexts([]string{"", "", "!!! ???", "..."}))
			for _, budget := range spillBudgets {
				op, gotKept, gotPairs := dedupAtBudget(t, tc.name, tc.params, budget, ds, 4)
				refKept, refPairs := oracle(t, op, ds)
				if len(refPairs) == 0 {
					t.Fatal("corpus produced no duplicates — test is vacuous")
				}
				if gotKept.Len() != refKept.Len() {
					t.Fatalf("budget %d: kept %d vs %d by the oracle", budget, gotKept.Len(), refKept.Len())
				}
				for i := range refKept.Samples {
					if gotKept.Samples[i].Text != refKept.Samples[i].Text {
						t.Fatalf("budget %d: kept sample %d diverges", budget, i)
					}
				}
				assertPairsEqual(t, budget, gotPairs, refPairs)
			}
		})
	}
}

func assertPairsEqual(t *testing.T, budget int64, got, want []ops.DupPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("budget %d: %d dup pairs vs %d by the oracle", budget, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budget %d: pair %d diverges: %+v vs %+v", budget, i, got[i], want[i])
		}
	}
}

// TestSpilledMatchesInMemoryRace is the same differential under the race
// detector's eye with higher parallelism, covering the concurrent
// signature/record-emission passes at both budgets.
func TestSpilledMatchesInMemoryRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range spillCases {
		// At least tc.docs, so the 1 KiB budget really spills.
		d := corpus.Web(corpus.Options{Docs: max(600, tc.docs), Seed: 5, DupExact: 0.2, DupNear: 0.1})
		for _, budget := range spillBudgets {
			op, _, gotPairs := dedupAtBudget(t, tc.name, tc.params, budget, d, 8)
			_, refPairs := oracle(t, op, d)
			assertPairsEqual(t, budget, gotPairs, refPairs)
		}
	}
}
