package tokenizer

import (
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

var trainCorpus = []string{
	"the quick brown fox jumps over the lazy dog",
	"the lazy dog sleeps while the quick fox runs",
	"quick foxes and lazy dogs are common in stories",
	"the story of the fox and the dog is old",
	"dogs and foxes run quickly through the lazy afternoon",
}

func trained(t *testing.T) *BPE {
	t.Helper()
	return Train(trainCorpus, 100)
}

func TestTrainProducesMergesAndVocab(t *testing.T) {
	b := trained(t)
	if len(b.merges) == 0 {
		t.Fatal("no merges learned")
	}
	if b.VocabSize() == 0 {
		t.Fatal("empty vocab")
	}
}

func TestTokenizeMergesFrequentWords(t *testing.T) {
	b := trained(t)
	// "the" is the most frequent word: it must merge into few tokens.
	toks := b.Tokenize("the")
	if len(toks) > 2 {
		t.Fatalf("'the' tokenized to %v, expected a merged form", toks)
	}
	// A rare character sequence stays as characters.
	toks = b.Tokenize("zzzqqq")
	if len(toks) < 4 {
		t.Fatalf("rare word should stay fragmented: %v", toks)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := trained(t)
	in := "the quick dog runs"
	out := b.Decode(b.Encode(in))
	if out != in {
		t.Fatalf("round trip: %q -> %q", in, out)
	}
}

func TestCountTokensMonotonicInLength(t *testing.T) {
	b := trained(t)
	short := b.CountTokens("the dog")
	long := b.CountTokens("the dog and the fox run through the story")
	if short <= 0 || long <= short {
		t.Fatalf("counts: short=%d long=%d", short, long)
	}
}

func TestDeterministicTraining(t *testing.T) {
	a := Train(trainCorpus, 80)
	b := Train(trainCorpus, 80)
	if a.VocabSize() != b.VocabSize() || len(a.merges) != len(b.merges) {
		t.Fatal("training not deterministic")
	}
	ta := a.Tokenize("the quick brown fox")
	tb := b.Tokenize("the quick brown fox")
	if strings.Join(ta, "|") != strings.Join(tb, "|") {
		t.Fatalf("tokenization differs: %v vs %v", ta, tb)
	}
}

func TestSaveLoad(t *testing.T) {
	b := trained(t)
	path := filepath.Join(t.TempDir(), "bpe.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	in := "the lazy fox story"
	if strings.Join(got.Tokenize(in), "|") != strings.Join(b.Tokenize(in), "|") {
		t.Fatal("loaded model tokenizes differently")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestEmptyInput(t *testing.T) {
	b := trained(t)
	if got := b.Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize empty = %v", got)
	}
	if got := b.CountTokens("   "); got != 0 {
		t.Fatalf("CountTokens blank = %d", got)
	}
	if got := b.Decode(nil); got != "" {
		t.Fatalf("Decode nil = %q", got)
	}
}

func TestTrainTinyCorpus(t *testing.T) {
	b := Train([]string{"a"}, 50)
	if got := b.Tokenize("a"); len(got) == 0 {
		t.Fatal("single-char corpus broken")
	}
}

// Property: token count over the corpus alphabet is at most
// characters + words (each word adds at most one end-of-word marker).
func TestPropertyTokenCountBounded(t *testing.T) {
	b := trained(t)
	f := func(raw string) bool {
		words := strings.Fields(strings.ToLower(raw))
		chars := 0
		for _, w := range words {
			chars += len([]rune(w))
		}
		n := b.CountTokens(raw)
		return n <= chars+len(words)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decode(encode(x)) == normalized x for in-alphabet text.
func TestPropertyRoundTripInAlphabet(t *testing.T) {
	b := trained(t)
	vocabWords := strings.Fields(strings.Join(trainCorpus, " "))
	f := func(idxs []uint8) bool {
		if len(idxs) == 0 {
			return true
		}
		words := make([]string, 0, len(idxs))
		for _, i := range idxs {
			words = append(words, vocabWords[int(i)%len(vocabWords)])
		}
		in := strings.Join(words, " ")
		return b.Decode(b.Encode(in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Tokenize never yields empty tokens, and every token is either
// the end-of-word marker or carries at least one rune of the input.
func TestPropertyTokensNonEmpty(t *testing.T) {
	b := trained(t)
	f := func(s string) bool {
		for _, tok := range b.Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
