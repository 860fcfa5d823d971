package text

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// raceEnabled is set by race_on_test.go when the race detector is active.
var raceEnabled bool

// refLangID is the map-based identifier LangID replaced, kept verbatim as
// the oracle: string trigrams counted into a map after strings.ToLower,
// one sorted-key cosine per language, a sort.Slice over the candidates.
type refLangID struct {
	profiles map[string]map[string]float64
}

func newRefLangID() *refLangID {
	l := &refLangID{profiles: make(map[string]map[string]float64, len(seedTexts))}
	for lang, seed := range seedTexts {
		l.profiles[lang] = refTrigramProfile(seed)
	}
	return l
}

func (l *refLangID) Classify(s string) (lang string, score float64) {
	if r := CJKRatio(s); r > 0.5 {
		return "zh", r
	}
	p := refTrigramProfile(strings.ToLower(s))
	if len(p) == 0 {
		return "", 0
	}
	type cand struct {
		lang string
		sim  float64
	}
	cands := make([]cand, 0, len(l.profiles))
	for lg, prof := range l.profiles {
		cands = append(cands, cand{lg, refCosine(p, prof)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sim != cands[j].sim {
			return cands[i].sim > cands[j].sim
		}
		return cands[i].lang < cands[j].lang
	})
	best := cands[0]
	if best.sim <= 0 {
		return "", 0
	}
	total := 0.0
	for _, c := range cands {
		total += c.sim
	}
	conf := best.sim / total
	n := float64(len(cands))
	conf = (conf - 1/n) / (1 - 1/n)
	if conf < 0 {
		conf = 0
	}
	return best.lang, math.Min(1, math.Sqrt(conf)*1.6)
}

func refTrigramProfile(s string) map[string]float64 {
	grams := CharNGrams(s, 3)
	if len(grams) == 0 {
		return nil
	}
	p := make(map[string]float64, len(grams))
	for _, g := range grams {
		if strings.TrimSpace(g) == "" {
			continue
		}
		p[g]++
	}
	return p
}

func refCosine(a, b map[string]float64) float64 {
	keysA := make([]string, 0, len(a))
	for k := range a {
		keysA = append(keysA, k)
	}
	sort.Strings(keysA)
	var dot, na, nb float64
	for _, k := range keysA {
		av := a[k]
		na += av * av
		if bv, ok := b[k]; ok {
			dot += av * bv
		}
	}
	keysB := make([]string, 0, len(b))
	for k := range b {
		keysB = append(keysB, k)
	}
	sort.Strings(keysB)
	for _, k := range keysB {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// hubDocs returns the texts of the built-in corpora the language-id and
// perplexity equivalence tests sweep: English web, C4 and Wikipedia,
// Chinese web and chat, and code.
func hubDocs(t testing.TB, docs int) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, name := range []string{"web-en", "c4", "wiki", "web-zh", "code", "cft-zh"} {
		d, err := corpus.Hub(name, docs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Samples {
			out[name] = append(out[name], s.Text)
		}
	}
	return out
}

// langIDEdgeCases are inputs at the boundaries of the trigram walk: too
// short, whitespace-only windows (including the Latin-1 spaces U+0085 and
// U+00A0 that strings.TrimSpace also trims), case folding that changes a
// rune's UTF-8 length, invalid UTF-8, and CJK shares around the 0.5 cut.
func langIDEdgeCases() []string {
	cases := []string{
		"", "a", "ab", "abc", "a b", "   ", "\t\n\r\v\f ", " \u0085 ",
		"x\u0085\u0085\u0085y", "   the   dog\u0085\u0085",
		"   the   quick   brown   ", "  　 　",
		"İSTANBUL İstanbul iİi", "STRAẞE straße ẞẞẞ", "ΣΟΦΊΑ ΟΔΟΣ σς Σ", "KELVIN K Å",
		"\xff", "\xff\xfe\xfd", "the \xc3 dog \xe2\x82 runs", "\xed\xa0\x80 surrogate", "ok\x00\x00\x00ok",
		"���", "the�quick\xffbrown",
	}
	// Mixed CJK / Latin letters around the CJKRatio > 0.5 early return.
	for cjk := 0; cjk <= 6; cjk++ {
		for latin := cjk - 2; latin <= cjk+2; latin++ {
			if latin < 0 {
				continue
			}
			cases = append(cases,
				strings.Repeat("数", cjk)+strings.Repeat("the", latin),
				strings.Repeat("据 ", cjk)+strings.Repeat("a ", latin),
				"Über "+strings.Repeat("中", cjk)+strings.Repeat("é", latin))
		}
	}
	return cases
}

// randomLangIDInput draws a short string from an alphabet that exercises
// case folding, whitespace classes, CJK and invalid bytes.
func randomLangIDInput(rng *rand.Rand) string {
	alphabet := []string{
		"a", "e", "t", "h", "A", "E", "T", "H", "é", "É", "ß", "ẞ", "İ", "ı", "Σ", "σ", "ς",
		" ", " ", "\t", "\n", "\u0085", " ", "　", "中", "文", "の", "한",
		"\xff", "\xc3", "\xe2\x82", "�", "0", "'", "-",
	}
	var b strings.Builder
	n := rng.Intn(24)
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func checkLangID(t *testing.T, got *LangID, want *refLangID, s string) {
	t.Helper()
	gl, gs := got.Classify(s)
	wl, ws := want.Classify(s)
	if gl != wl || gs != ws {
		t.Fatalf("Classify(%q) = (%q, %v), reference (%q, %v)", s, gl, gs, wl, ws)
	}
}

// TestLangIDMatchesReference pins the rewrite bit-for-bit: same language,
// same float64 score, on every document of six hub corpora, the edge cases
// and random strings.
func TestLangIDMatchesReference(t *testing.T) {
	for lang, seed := range seedTexts {
		if strings.ToLower(seed) != seed {
			t.Fatalf("seed %q is not lowercase: NewLangID folds seeds, the reference counts them as written", lang)
		}
	}
	got, want := NewLangID(), newRefLangID()
	docs := 1600
	if raceEnabled || testing.Short() {
		docs = 100
	}
	for name, texts := range hubDocs(t, docs) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, s := range texts {
				checkLangID(t, got, want, s)
			}
		})
	}
	for _, s := range langIDEdgeCases() {
		checkLangID(t, got, want, s)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		checkLangID(t, got, want, randomLangIDInput(rng))
	}
}

func TestLangIDLanguages(t *testing.T) {
	got := NewLangID().Languages()
	if strings.Join(got, ",") != "de,en,es,fr,zh" {
		t.Fatalf("Languages() = %v", got)
	}
}

// FuzzLangID is the differential form of TestLangIDMatchesReference.
func FuzzLangID(f *testing.F) {
	for _, s := range langIDEdgeCases() {
		f.Add(s)
	}
	got, want := NewLangID(), newRefLangID()
	f.Fuzz(func(t *testing.T, s string) {
		checkLangID(t, got, want, s)
	})
}

func TestLangIDClassifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts shift under the race detector")
	}
	doc := hubDocs(t, 1)["web-en"][0]
	l := NewLangID()
	l.Classify(doc)
	if got := testing.AllocsPerRun(100, func() { l.Classify(doc) }); got > 1 {
		t.Fatalf("Classify allocates %.1f times per web-en doc, want <= 1", got)
	}
}

func BenchmarkLangIDClassify(b *testing.B) {
	docs := hubDocs(b, 200)["web-en"]
	l := NewLangID()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		l.Classify(docs[i%len(docs)])
		i++
	}
}
