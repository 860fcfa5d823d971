package filter

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/text"
)

// raceEnabled is set by race_on_test.go when the race detector is active.
var raceEnabled bool

// refFallbackPerplexity is the allocating fallbackPerplexity the pooled
// one replaced, kept as the oracle.
func refFallbackPerplexity(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	counts := make(map[string]int, len(words))
	for _, w := range words {
		counts[w]++
	}
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	sort.Ints(vals)
	var h float64
	n := float64(len(words))
	for _, c := range vals {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return math.Pow(2, h) * 40
}

// hubWords returns the lowered word tokens of every document of the
// corpora the perplexity equivalence test sweeps.
func hubWords(t testing.TB, docs int) [][]string {
	t.Helper()
	var out [][]string
	for _, name := range []string{"web-en", "c4", "wiki", "web-zh", "code", "cft-zh"} {
		d, err := corpus.Hub(name, docs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Samples {
			out = append(out, text.WordsLower(s.Text))
		}
	}
	return out
}

// TestFallbackPerplexityMatchesReference pins the pooled implementation
// bit-for-bit against the map-based oracle.
func TestFallbackPerplexityMatchesReference(t *testing.T) {
	docs := 1600
	if raceEnabled || testing.Short() {
		docs = 100
	}
	inputs := hubWords(t, docs)
	inputs = append(inputs, nil, []string{"a"}, strings.Fields("a a a a"), strings.Fields("a b c d"))
	rng := rand.New(rand.NewSource(3))
	vocab := strings.Fields("the of and to in is was for on as with by it at from")
	for i := 0; i < 2000; i++ {
		words := make([]string, rng.Intn(60))
		for j := range words {
			words[j] = vocab[rng.Intn(1+rng.Intn(len(vocab)))]
		}
		inputs = append(inputs, words)
	}
	for _, words := range inputs {
		if got, want := fallbackPerplexity(words), refFallbackPerplexity(words); got != want {
			t.Fatalf("fallbackPerplexity(%q) = %v, reference %v", words, got, want)
		}
	}
}

func TestFallbackPerplexityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts shift under the race detector")
	}
	words := hubWords(t, 1)[0]
	fallbackPerplexity(words)
	if got := testing.AllocsPerRun(100, func() { fallbackPerplexity(words) }); got > 1 {
		t.Fatalf("fallbackPerplexity allocates %.1f times per web-en doc, want <= 1", got)
	}
}

func BenchmarkFallbackPerplexity(b *testing.B) {
	docs := hubWords(b, 200)[:200] // web-en
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		fallbackPerplexity(docs[i%len(docs)])
		i++
	}
}
