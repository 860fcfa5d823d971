package text

import (
	"strings"
	"testing"
	"unicode"
)

// TestWordsUnderscoreIsWordRune pins the documented (previously
// undocumented) behavior: '_' is a word rune, so snake_case identifiers
// segment as single tokens.
func TestWordsUnderscoreIsWordRune(t *testing.T) {
	got := Words("snake_case and _leading trailing_ lone _ mix_3d")
	want := []string{"snake_case", "and", "_leading", "trailing_", "lone", "_", "mix_3d"}
	if len(got) != len(want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if !IsWordRune('_') {
		t.Fatal("IsWordRune('_') must be true")
	}
}

// refWords is the original builder-based segmentation, kept as the
// reference the substring-based WordsInto must match exactly.
func refWords(s string) []string {
	var words []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			words = append(words, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case IsCJK(r):
			flush()
			words = append(words, string(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '-' || r == '_':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return words
}

// refLines is the original strings.Split-based line splitter.
func refLines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, "\r")
	}
	return lines
}

// refSentences is the original []rune-based sentence splitter.
func refSentences(s string) []string {
	var out []string
	var b strings.Builder
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		b.WriteRune(r)
		if isSentenceEnd(r) {
			for i+1 < len(runes) && (isSentenceEnd(runes[i+1]) || runes[i+1] == '"' || runes[i+1] == '\'' || runes[i+1] == '”') {
				i++
				b.WriteRune(runes[i])
			}
			if t := strings.TrimSpace(b.String()); t != "" {
				out = append(out, t)
			}
			b.Reset()
		}
	}
	if t := strings.TrimSpace(b.String()); t != "" {
		out = append(out, t)
	}
	return out
}

var segmentationCases = []string{
	"",
	"The quick brown fox! Jumps over... the lazy dog? Yes.",
	"don't re-enter the under_scored zone 42 times",
	"中文没有空格。日本語も同じです。English mixed in.",
	"MIXED Case With CAPS and İstanbul",
	"line one\nline two\r\nline three\r\n\nline five",
	"  spaces   and\ttabs  ",
	"a b\u200bc\ufeffd",
	"ends without terminator",
	"\"Quoted!\" she said. 'Another.' Done…",
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWordsMatchesReference(t *testing.T) {
	for _, s := range segmentationCases {
		if got, want := Words(s), refWords(s); !equalSlices(got, want) {
			t.Fatalf("Words(%q) = %v, reference %v", s, got, want)
		}
		// WordsLower equals per-token lowering of the reference.
		want := refWords(s)
		for i := range want {
			want[i] = strings.ToLower(want[i])
		}
		if got := WordsLower(s); !equalSlices(got, want) {
			t.Fatalf("WordsLower(%q) = %v, reference %v", s, got, want)
		}
	}
}

func TestLinesMatchesReference(t *testing.T) {
	for _, s := range segmentationCases {
		if got, want := Lines(s), refLines(s); !equalSlices(got, want) {
			t.Fatalf("Lines(%q) = %v, reference %v", s, got, want)
		}
	}
}

func TestSentencesMatchesReference(t *testing.T) {
	for _, s := range segmentationCases {
		if got, want := Sentences(s), refSentences(s); !equalSlices(got, want) {
			t.Fatalf("Sentences(%q) = %v, reference %v", s, got, want)
		}
	}
}

func TestEachWordMatchesWords(t *testing.T) {
	for _, s := range segmentationCases {
		var got []string
		EachWord(s, func(w string) bool { got = append(got, w); return true })
		if want := Words(s); !equalSlices(got, want) {
			t.Fatalf("EachWord(%q) = %v, Words %v", s, got, want)
		}
	}
	// Early stop.
	n := 0
	EachWord("a b c d", func(string) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("EachWord early stop visited %d tokens, want 2", n)
	}
}

// refNormalizeWhitespace is the builder path with the fast pre-scan
// disabled — NormalizeWhitespace must agree with it everywhere.
func refNormalizeWhitespace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := false
	newlines := 0
	for _, r := range s {
		if r == '\n' {
			newlines++
			if newlines <= 2 {
				trimTrailingSpaces(&b)
				b.WriteByte('\n')
			}
			prevSpace = false
			continue
		}
		if isHorizontalSpace(r) {
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
			newlines = 0
			continue
		}
		b.WriteRune(r)
		prevSpace = false
		newlines = 0
	}
	return strings.TrimSpace(b.String())
}

func TestNormalizeWhitespaceFastPathAgrees(t *testing.T) {
	cases := append([]string{}, segmentationCases...)
	cases = append(cases,
		"already normal text\nwith two lines",
		"a\n\nb", "a\n\n\nb", "a \nb", " a", "a ", "a  b", "a\tb",
		"paragraph one\n\nparagraph two\n", "\n", "x", "",
		// Unicode spaces outside isHorizontalSpace still trim at the
		// edges (strings.TrimSpace) — the fast path must not skip them.
		"abc\u0085", "\u0085abc", "abc\u2028", "\u2029abc",
		"abc\u1680", "mid\u2028dle stays",
	)
	for _, s := range cases {
		if got, want := NormalizeWhitespace(s), refNormalizeWhitespace(s); got != want {
			t.Fatalf("NormalizeWhitespace(%q) = %q, reference %q", s, got, want)
		}
	}
}

// TestHashedRepetitionMatchesStringPath: hashed n-gram repetition must
// equal the string-materializing computation (no observed collisions on
// real text).
func TestHashedRepetitionMatchesStringPath(t *testing.T) {
	texts := []string{
		"a b c a b c a b c",
		"one two three four five six seven",
		strings.Repeat("spam ham ", 50),
		"中文 中文 中文 mixed tokens 中文",
	}
	for _, s := range texts {
		words := WordsLower(s)
		for _, n := range []int{2, 3, 5} {
			want := RepetitionRatio(WordNGrams(words, n))
			if got := WordNGramRepetitionRatio(words, n); got != want {
				t.Fatalf("WordNGramRepetitionRatio(%q, %d) = %v, want %v", s, n, got, want)
			}
			want = RepetitionRatio(CharNGrams(s, n))
			if got := CharNGramRepetitionRatio(s, n); got != want {
				t.Fatalf("CharNGramRepetitionRatio(%q, %d) = %v, want %v", s, n, got, want)
			}
		}
		// DistinctRatio vs map-based uniqueness.
		uniq := map[string]struct{}{}
		for _, w := range words {
			uniq[w] = struct{}{}
		}
		if len(words) > 0 {
			want := float64(len(uniq)) / float64(len(words))
			if got := DistinctRatio(words); got != want {
				t.Fatalf("DistinctRatio(%v) = %v, want %v", words, got, want)
			}
		}
	}
}

// TestSegmenterReusesBuffers: repeated segmentation through one
// Segmenter returns the same backing array (the zero-allocation
// property the pool relies on).
func TestSegmenterReusesBuffers(t *testing.T) {
	g := GetSegmenter()
	defer PutSegmenter(g)
	w1 := g.Words("alpha beta gamma")
	c1 := cap(w1)
	w2 := g.Words("delta epsilon")
	if cap(w2) != c1 {
		t.Fatalf("segmenter reallocated: cap %d then %d", c1, cap(w2))
	}
	if len(w2) != 2 || w2[0] != "delta" {
		t.Fatalf("w2 = %v", w2)
	}
}

// TestPutSegmenterClearsEveryToken: PutSegmenter clears only the prefix
// its buffers have used since the last put, and that must still cover
// every parked substring — after a long call followed by a short one, no
// slot anywhere in a buffer's capacity may still pin a source text.
func TestPutSegmenterClearsEveryToken(t *testing.T) {
	g := &Segmenter{}
	long := strings.Repeat("Alpha beta gamma. Delta epsilon!\n", 40)
	g.Words(long)
	g.WordsLower(long)
	g.Lines(long)
	g.Sentences(long)
	g.Words("short one")
	g.WordsLower("short one")
	g.Lines("short")
	g.Sentences("Short.")
	bufs := map[string]*tokenBuf{"words": &g.words, "wordsLow": &g.wordsLow, "lines": &g.lines, "sentences": &g.sentences}
	for name, b := range bufs {
		if cap(b.s) < 40 {
			t.Fatalf("%s: cap %d, the long call should have grown it", name, cap(b.s))
		}
	}
	PutSegmenter(g)
	for name, b := range bufs {
		if len(b.s) != 0 || b.hw != 0 {
			t.Errorf("%s: len %d, high water %d after put", name, len(b.s), b.hw)
		}
		for i, tok := range b.s[:cap(b.s)] {
			if tok != "" {
				t.Errorf("%s[%d] = %q survives PutSegmenter", name, i, tok)
				break
			}
		}
	}
}
