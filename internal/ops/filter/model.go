package filter

import (
	"math"
	"slices"
	"sync"

	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/text"
)

// Model-backed filters: language identification, perplexity, token count
// and quality score. These are the expensive OPs that the reordering pass
// schedules last (Sec. 6), so they see fewer samples.

func init() {
	ops.Register("language_id_score_filter", ops.CategoryFilter, "general,multilingual",
		func(p ops.Params) (ops.OP, error) {
			return &languageIDFilter{
				base:     newBase("language_id_score_filter", p),
				lang:     p.String("lang", "en"),
				minScore: p.Float("min_score", 0.5),
			}, nil
		})
	ops.Register("perplexity_filter", ops.CategoryFilter, "general",
		func(p ops.Params) (ops.OP, error) {
			return &perplexityFilter{
				base:   newBase("perplexity_filter", p),
				maxPPL: p.Float("max_ppl", 1500),
			}, nil
		})
	ops.Register("token_num_filter", ops.CategoryFilter, "general",
		func(p ops.Params) (ops.OP, error) {
			return &tokenNumFilter{
				base:      newBase("token_num_filter", p),
				rangeKeep: newRange(p, "min_num", 10, "max_num", 1e9),
			}, nil
		})
	ops.Register("quality_score_filter", ops.CategoryFilter, "general,pre-training",
		func(p ops.Params) (ops.OP, error) {
			return &qualityScoreFilter{
				base:     newBase("quality_score_filter", p),
				minScore: p.Float("min_score", 0.5),
			}, nil
		})
}

var (
	langIDOnce sync.Once
	langID     *text.LangID
)

func sharedLangID() *text.LangID {
	langIDOnce.Do(func() { langID = text.NewLangID() })
	return langID
}

type languageIDFilter struct {
	base
	lang     string
	minScore float64
}

// Interned stat keys for the model-backed filters.
var (
	keyLang         = sample.InternStatKey("lang")
	keyLangScore    = sample.InternStatKey("lang_score")
	keyPerplexity   = sample.InternStatKey("perplexity")
	keyNumTokens    = sample.InternStatKey("num_tokens")
	keyQualityScore = sample.InternStatKey("quality_score")
)

func (f *languageIDFilter) StatKeys() []string { return []string{"lang", "lang_score"} }
func (f *languageIDFilter) CostHint() float64  { return 6 }

func (f *languageIDFilter) ComputeStats(s *sample.Sample) error {
	if _, ok := s.Stats.Float(keyLangScore); ok {
		return nil
	}
	lang, score := sharedLangID().Classify(f.text(s))
	s.Stats.SetString(keyLang, lang)
	s.Stats.SetFloat(keyLangScore, score)
	return nil
}

func (f *languageIDFilter) Keep(s *sample.Sample) bool {
	lang, _ := s.Stats.String(keyLang)
	score, _ := s.Stats.Float(keyLangScore)
	return lang == f.lang && score >= f.minScore
}

type perplexityFilter struct {
	base
	maxPPL float64
}

func (f *perplexityFilter) StatKeys() []string    { return []string{"perplexity"} }
func (f *perplexityFilter) ContextKeys() []string { return []string{ops.CtxWordsLower} }
func (f *perplexityFilter) CostHint() float64     { return 8 }

func (f *perplexityFilter) ComputeStats(s *sample.Sample) error {
	if _, ok := s.Stats.Float(keyPerplexity); ok {
		return nil
	}
	s.Stats.SetFloat(keyPerplexity, fallbackPerplexity(ops.WordsLowerOf(s)))
	return nil
}

func (f *perplexityFilter) Keep(s *sample.Sample) bool {
	v, _ := s.Stats.Float(keyPerplexity)
	return v <= f.maxPPL
}

// pplScratch holds fallbackPerplexity's per-call buffers.
type pplScratch struct {
	freq   map[string]int
	counts []int
}

// pplMaxPooledWords bounds the distinct-word count whose map goes back to
// the pool: clearing a map costs its capacity, so one huge document must
// not tax every later one.
const pplMaxPooledWords = 1 << 12

var pplScratchPool = sync.Pool{New: func() any { return &pplScratch{freq: map[string]int{}} }}

// fallbackPerplexity is perplexity_filter's score in place of an LM: an
// entropy proxy over the word distribution (degenerate repetitive text
// scores low, random noise scores high) scaled into a KenLM-like range.
//
// The entropy terms are summed in ascending-count order: floating-point
// addition is not associative, and iterating the map directly would make
// the result depend on Go's randomized map order — breaking the guarantee
// that pipeline output is independent of worker count. The map and the
// count slice are pooled, so a call does not allocate.
func fallbackPerplexity(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	sc := pplScratchPool.Get().(*pplScratch)
	for _, w := range words {
		sc.freq[w]++
	}
	counts := sc.counts[:0]
	for _, c := range sc.freq {
		counts = append(counts, c)
	}
	if len(sc.freq) > pplMaxPooledWords {
		sc.freq = map[string]int{}
	} else {
		clear(sc.freq)
	}
	slices.Sort(counts)
	var h float64
	n := float64(len(words))
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	sc.counts = counts
	pplScratchPool.Put(sc)
	return math.Pow(2, h) * 40
}

type tokenNumFilter struct {
	base
	rangeKeep
}

func (f *tokenNumFilter) StatKeys() []string    { return []string{"num_tokens"} }
func (f *tokenNumFilter) ContextKeys() []string { return []string{ops.CtxWordsLower} }
func (f *tokenNumFilter) CostHint() float64     { return 4 }

func (f *tokenNumFilter) ComputeStats(s *sample.Sample) error {
	if _, ok := s.Stats.Float(keyNumTokens); ok {
		return nil
	}
	// In place of a tokenizer: subword tokenizers emit ~4/3 tokens per word.
	s.Stats.SetFloat(keyNumTokens, float64(len(ops.WordsLowerOf(s))*4/3))
	return nil
}

func (f *tokenNumFilter) Keep(s *sample.Sample) bool {
	v, _ := s.Stats.Float(keyNumTokens)
	return f.within(v)
}

type qualityScoreFilter struct {
	base
	minScore float64
}

func (f *qualityScoreFilter) StatKeys() []string { return []string{"quality_score"} }
func (f *qualityScoreFilter) CostHint() float64  { return 5 }

func (f *qualityScoreFilter) ComputeStats(s *sample.Sample) error {
	if _, ok := s.Stats.Float(keyQualityScore); ok {
		return nil
	}
	s.Stats.SetFloat(keyQualityScore, heuristicQuality(f.text(s)))
	return nil
}

func (f *qualityScoreFilter) Keep(s *sample.Sample) bool {
	v, _ := s.Stats.Float(keyQualityScore)
	return v >= f.minScore
}

// heuristicQuality blends cheap signals into a [0,1] score in place of a
// trained classifier: mostly-alphanumeric, low-special-character text
// with a healthy stopword share looks like prose.
func heuristicQuality(t string) float64 {
	if t == "" {
		return 0
	}
	alnum := text.AlnumRatio(t)
	special := text.SpecialCharRatio(t)
	words := text.WordsLower(t)
	stop := 0
	sw := text.Stopwords("en")
	for _, w := range words {
		if _, ok := sw[w]; ok {
			stop++
		}
	}
	stopRatio := 0.0
	if len(words) > 0 {
		stopRatio = float64(stop) / float64(len(words))
	}
	score := 0.5*alnum + 0.3*math.Min(stopRatio*3, 1) + 0.2*(1-math.Min(special*4, 1))
	return math.Max(0, math.Min(1, score))
}
