package text

import (
	"math"
	"slices"
	"sync"
	"unicode"
)

// LangID is a character-trigram language identifier, the stand-in for the
// fasttext model used by the paper's language_id_score_filter. Profiles
// are built from embedded seed text; Classify returns the best language
// and a confidence score in [0, 1].
//
// The profiles are frozen at construction into one open-addressed table
// keyed by packed trigram (see packTrigram), holding every language's
// count for that trigram, plus each profile's precomputed norm. Classify
// counts the document's trigrams into a pooled table in one pass over the
// text and scores all languages in one pass over its distinct trigrams:
// per document it does arithmetic and table lookups only.
type LangID struct {
	langs   []string   // sorted language codes; l indexes every per-language slice
	profile *gramTable // union of all profiles' trigrams
	weights []float64  // weights[slot*len(langs)+l]: count of the trigram in slot for langs[l]
	sqrtNB  []float64  // math.Sqrt of each profile's sum of squared counts
}

// maxLangs bounds the language count so Classify's per-language
// accumulators live in fixed-size arrays on the stack.
const maxLangs = 8

// seedTexts are small, representative snippets per language. Trigram
// profiles extracted from them separate the synthetic corpora cleanly;
// they are not intended to match fasttext accuracy on real web text.
var seedTexts = map[string]string{
	"en": `the quick brown fox jumps over the lazy dog and then runs through
the forest where many animals live together in peace this is a sentence
with common english words that people use every day when they talk about
their work their families and the world around them we should also note
that language models are trained on large amounts of text which makes
the distribution of letters and words very important for all of these
systems and their users everywhere something about history science and
government with information knowledge education research development`,
	"de": `der schnelle braune fuchs springt über den faulen hund und läuft
dann durch den wald wo viele tiere zusammen leben dies ist ein satz mit
häufigen deutschen wörtern die menschen jeden tag benutzen wenn sie über
ihre arbeit ihre familien und die welt um sie herum sprechen wir sollten
auch beachten dass sprachmodelle auf großen textmengen trainiert werden
was die verteilung von buchstaben und wörtern sehr wichtig macht etwas
über geschichte wissenschaft und regierung mit informationen wissen`,
	"fr": `le rapide renard brun saute par dessus le chien paresseux et court
ensuite à travers la forêt où beaucoup d'animaux vivent ensemble en paix
ceci est une phrase avec des mots français courants que les gens utilisent
tous les jours quand ils parlent de leur travail de leurs familles et du
monde qui les entoure nous devons aussi noter que les modèles de langue
sont entraînés sur de grandes quantités de texte ce qui rend la
distribution des lettres et des mots très importante pour ces systèmes`,
	"es": `el rápido zorro marrón salta sobre el perro perezoso y luego corre
por el bosque donde muchos animales viven juntos en paz esta es una frase
con palabras comunes en español que la gente usa todos los días cuando
hablan de su trabajo sus familias y el mundo que les rodea también debemos
señalar que los modelos de lenguaje se entrenan con grandes cantidades de
texto lo que hace que la distribución de letras y palabras sea muy
importante para todos estos sistemas y sus usuarios en todas partes`,
	"zh": `快速的棕色狐狸跳过懒狗然后跑过森林那里有许多动物和平地生活在一起这是
一个包含常用中文词汇的句子人们每天谈论工作家庭和周围世界时都会使用这些词我们
还应该注意语言模型是在大量文本上训练的这使得字母和单词的分布对所有这些系统及
其用户都非常重要历史科学政府信息知识教育研究发展数据处理质量多样性`,
}

// NewLangID builds the identifier from the embedded seed profiles. The
// seeds are lowercase, so folding them like documents leaves them as
// written.
func NewLangID() *LangID {
	langs := make([]string, 0, len(seedTexts))
	for lang := range seedTexts {
		langs = append(langs, lang)
	}
	if len(langs) > maxLangs {
		panic("text: more seed languages than maxLangs")
	}
	slices.Sort(langs)
	n := len(langs)

	per := make([]*gramTable, n)
	union := newGramTable()
	for l, lang := range langs {
		per[l] = newGramTable()
		per[l].addText(seedTexts[lang])
		for _, i := range per[l].used {
			union.add(per[l].keys[i])
		}
	}
	id := &LangID{
		langs:   langs,
		profile: union,
		weights: make([]float64, len(union.keys)*n),
		sqrtNB:  make([]float64, n),
	}
	for l, t := range per {
		var nb float64
		for _, i := range t.used {
			c := float64(t.counts[i])
			slot, _ := union.find(t.keys[i])
			id.weights[slot*n+l] = c
			nb += c * c
		}
		id.sqrtNB[l] = math.Sqrt(nb)
	}
	return id
}

// Languages returns the supported language codes, sorted.
func (l *LangID) Languages() []string { return slices.Clone(l.langs) }

var gramTablePool = sync.Pool{New: func() any { return newGramTable() }}

// Classify returns the most likely language for s and a confidence score
// in [0, 1]. Empty or too-short input yields ("", 0).
//
// The score is the cosine similarity of trigram count vectors. Every term
// of the dot products and of the document norm is a product of integer
// counts, so each sum is an integer, bounded by the squared rune count and
// so below 2^53 for any document under 94M runes: exact in float64 in any
// summation order. Only the confidence total sums non-integer
// similarities; it is summed in a fixed order: (similarity desc, code asc).
func (l *LangID) Classify(s string) (lang string, score float64) {
	// Fast, reliable path: a high share of CJK letters is decisive.
	if r := CJKRatio(s); r > 0.5 {
		return "zh", r
	}
	t := gramTablePool.Get().(*gramTable)
	t.addText(s)
	n := len(l.langs)
	var na float64
	var dot [maxLangs]float64
	for _, i := range t.used {
		c := float64(t.counts[i])
		na += c * c
		if slot, ok := l.profile.find(t.keys[i]); ok {
			for k, p := range l.weights[slot*n : slot*n+n] {
				dot[k] += c * p
			}
		}
	}
	distinct := len(t.used)
	t.reset()
	gramTablePool.Put(t)
	if distinct == 0 {
		return "", 0
	}

	// Rank candidates by (similarity desc, code asc); langs is sorted, so
	// an insertion sort over indices that only moves past strictly lower
	// similarities keeps ties in code order.
	var sims [maxLangs]float64
	var order [maxLangs]int
	for k := 0; k < n; k++ {
		sims[k] = dot[k] / (math.Sqrt(na) * l.sqrtNB[k])
		j := k
		for ; j > 0 && sims[k] > sims[order[j-1]]; j-- {
			order[j] = order[j-1]
		}
		order[j] = k
	}
	best := order[0]
	if sims[best] <= 0 {
		return "", 0
	}
	// Confidence: the winner's share of total similarity mass, sharpened;
	// short texts with ambiguous trigrams land near 1/len(languages).
	total := 0.0
	for _, k := range order[:n] {
		total += sims[k]
	}
	conf := sims[best] / total
	// Rescale from [1/n, 1] to [0, 1].
	fn := float64(n)
	conf = (conf - 1/fn) / (1 - 1/fn)
	if conf < 0 {
		conf = 0
	}
	return l.langs[best], math.Min(1, math.Sqrt(conf)*1.6)
}

// Score returns the confidence that s is in language want.
func (l *LangID) Score(s, want string) float64 {
	lang, score := l.Classify(s)
	if lang != want {
		return 0
	}
	return score
}

// packTrigram packs three runes, 21 bits each (the Unicode range), into
// one key. The top bit marks the key occupied so 0 can mean an empty slot.
func packTrigram(a, b, c rune) uint64 {
	return 1<<63 | uint64(a)<<42 | uint64(b)<<21 | uint64(c)
}

// gramTable counts packed trigrams in an open-addressed, linearly probed
// table. used lists the occupied slots in insertion order, so iteration
// and reset cost O(distinct trigrams), not O(capacity).
type gramTable struct {
	keys   []uint64 // packed trigram; 0 = empty
	counts []uint32
	used   []int32
	shift  uint // 64 - log2(len(keys))
}

const gramTableBits = 10

func newGramTable() *gramTable {
	return &gramTable{
		keys:   make([]uint64, 1<<gramTableBits),
		counts: make([]uint32, 1<<gramTableBits),
		shift:  64 - gramTableBits,
	}
}

// home is the key's first probe slot (Fibonacci hashing).
func (t *gramTable) home(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> t.shift) }

// addText counts every 3-rune window of s lowered rune by rune, skipping
// windows of three unicode.IsSpace runes (exactly the windows
// strings.TrimSpace empties). unicode.ToLower per rune yields the same
// runes as ranging over strings.ToLower(s); invalid bytes become U+FFFD
// either way.
func (t *gramTable) addText(s string) {
	var r0, r1 rune
	var sp0, sp1 bool
	seen := 0
	for _, r := range s {
		r = unicode.ToLower(r)
		sp := unicode.IsSpace(r)
		if seen >= 2 && !(sp0 && sp1 && sp) {
			t.add(packTrigram(r0, r1, r))
		}
		r0, r1, sp0, sp1 = r1, r, sp1, sp
		seen++
	}
}

func (t *gramTable) add(k uint64) {
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			t.counts[i]++
			return
		case 0:
			t.keys[i] = k
			t.counts[i] = 1
			t.used = append(t.used, int32(i))
			if 2*len(t.used) > len(t.keys) {
				t.grow()
			}
			return
		}
	}
}

func (t *gramTable) find(k uint64) (int, bool) {
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return 0, false
		}
	}
}

// grow doubles the capacity and reinserts in the old insertion order.
func (t *gramTable) grow() {
	keys, counts, used := t.keys, t.counts, t.used
	t.keys = make([]uint64, 2*len(keys))
	t.counts = make([]uint32, 2*len(keys))
	t.used = make([]int32, 0, cap(used))
	t.shift--
	mask := len(t.keys) - 1
	for _, old := range used {
		i := t.home(keys[old])
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = keys[old]
		t.counts[i] = counts[old]
		t.used = append(t.used, int32(i))
	}
}

func (t *gramTable) reset() {
	for _, i := range t.used {
		t.keys[i] = 0
	}
	t.used = t.used[:0]
}
