package dedup

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/text"
)

// shinglesOfRehash is the rolling shingle hash as it was before the
// token-hash ring: it re-hashes the word leaving the window. It is the
// reference shinglesOf must match bit for bit.
func shinglesOfRehash(words []string, n int) []uint64 {
	if len(words) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if len(words) < n {
		n = len(words)
	}
	out := make([]uint64, 0, len(words)-n+1)
	bPow := uint64(1)
	for i := 1; i < n; i++ {
		bPow *= shingleB
	}
	var h uint64
	for i, w := range words {
		h = h*shingleB + splitmix64(text.HashString(w))
		if i >= n-1 {
			out = append(out, splitmix64(h))
			h -= splitmix64(text.HashString(words[i-n+1])) * bPow
		}
	}
	return out
}

// TestShinglesOfMatchesRehash compares the ring against the reference
// over random word lists, for every window size 0…20 — on both sides of
// the ring's stack capacity, and past the list length.
func TestShinglesOfMatchesRehash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = "w" + strconv.Itoa(i)
	}
	for trial := 0; trial < 200; trial++ {
		words := make([]string, rng.Intn(40))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		for n := 0; n <= 20; n++ {
			got, want := shinglesOf(words, n), shinglesOfRehash(words, n)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d, %d words: ring %v, reference %v", n, len(words), got, want)
			}
		}
	}
}
