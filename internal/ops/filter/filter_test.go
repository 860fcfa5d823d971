package filter

import (
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/sample"
)

// verdict builds the named filter, computes stats, and returns Keep.
func verdict(t *testing.T, name string, p ops.Params, s *sample.Sample) bool {
	t.Helper()
	op, err := ops.Build(name, p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	f, ok := op.(ops.Filter)
	if !ok {
		t.Fatalf("%s is not a Filter", name)
	}
	if err := f.ComputeStats(s); err != nil {
		t.Fatalf("stats %s: %v", name, err)
	}
	return f.Keep(s)
}

func textVerdict(t *testing.T, name string, p ops.Params, text string) bool {
	return verdict(t, name, p, sample.New(text))
}

func TestAlphanumericFilter(t *testing.T) {
	if !textVerdict(t, "alphanumeric_filter", nil, "perfectly normal text") {
		t.Fatal("normal text rejected")
	}
	if textVerdict(t, "alphanumeric_filter", nil, "!!! ??? *** $$$ %%% ((( )))") {
		t.Fatal("symbol soup accepted")
	}
}

func TestSpecialCharactersFilter(t *testing.T) {
	if !textVerdict(t, "special_characters_filter", nil, "clean words only here") {
		t.Fatal("clean text rejected")
	}
	if textVerdict(t, "special_characters_filter", nil, "##$$%%^^&&**((!!~~``||") {
		t.Fatal("special char soup accepted")
	}
}

func TestDigitRatioFilter(t *testing.T) {
	if !textVerdict(t, "digit_ratio_filter", nil, "year 2024 was fine") {
		t.Fatal("light digits rejected")
	}
	if textVerdict(t, "digit_ratio_filter", ops.Params{"max_ratio": 0.3}, "123456789 123456789 ok") {
		t.Fatal("digit soup accepted")
	}
}

func TestTextLengthFilter(t *testing.T) {
	if textVerdict(t, "text_length_filter", ops.Params{"min_len": 20}, "short") {
		t.Fatal("short text accepted")
	}
	if !textVerdict(t, "text_length_filter", ops.Params{"min_len": 5, "max_len": 100}, "long enough text here") {
		t.Fatal("ok text rejected")
	}
	if textVerdict(t, "text_length_filter", ops.Params{"max_len": 10}, "this text is far too long") {
		t.Fatal("long text accepted")
	}
}

func TestCharacterRepetitionFilter(t *testing.T) {
	normal := "each sentence here differs from the previous one in interesting ways"
	if !textVerdict(t, "character_repetition_filter", nil, normal) {
		t.Fatal("normal text rejected")
	}
	degenerate := strings.Repeat("abcdefghij", 50)
	if textVerdict(t, "character_repetition_filter", nil, degenerate) {
		t.Fatal("repetitive text accepted")
	}
}

func TestWordRepetitionFilter(t *testing.T) {
	degenerate := strings.Repeat("the same ten words repeated over and over forever again ", 20)
	if textVerdict(t, "word_repetition_filter", ops.Params{"rep_len": 5, "max_ratio": 0.3}, degenerate) {
		t.Fatal("repetitive text accepted")
	}
	varied := "every word in this sentence appears exactly once without repeats anywhere"
	if !textVerdict(t, "word_repetition_filter", ops.Params{"rep_len": 5, "max_ratio": 0.3}, varied) {
		t.Fatal("varied text rejected")
	}
}

func TestWordNumFilter(t *testing.T) {
	if textVerdict(t, "word_num_filter", ops.Params{"min_num": 5}, "too few") {
		t.Fatal("short accepted")
	}
	if !textVerdict(t, "word_num_filter", ops.Params{"min_num": 3, "max_num": 10}, "exactly five words here now") {
		t.Fatal("ok rejected")
	}
}

func TestLineLengthFilters(t *testing.T) {
	code := "x\ny\nz"
	if textVerdict(t, "average_line_length_filter", ops.Params{"min_len": 5}, code) {
		t.Fatal("short lines accepted")
	}
	prose := "this is a reasonably long line of text\nand another one just like it"
	if !textVerdict(t, "average_line_length_filter", ops.Params{"min_len": 10}, prose) {
		t.Fatal("prose rejected")
	}
	long := "short\n" + strings.Repeat("x", 2000)
	if textVerdict(t, "maximum_line_length_filter", ops.Params{"min_len": 1, "max_len": 1000}, long) {
		t.Fatal("overlong line accepted")
	}
}

func TestStopwordsFilter(t *testing.T) {
	prose := "the cat sat on the mat and it was happy about the sun"
	if !textVerdict(t, "stopwords_filter", nil, prose) {
		t.Fatal("prose rejected")
	}
	keywordSpam := "buy cheap widgets discount widgets sale widgets deals widgets"
	if textVerdict(t, "stopwords_filter", nil, keywordSpam) {
		t.Fatal("keyword spam accepted")
	}
}

func TestFlaggedWordsFilter(t *testing.T) {
	clean := "a perfectly pleasant sentence about gardens and books"
	if !textVerdict(t, "flagged_words_filter", nil, clean) {
		t.Fatal("clean text rejected")
	}
	toxic := "damn casino jackpot porn scam damn viagra lottery"
	if textVerdict(t, "flagged_words_filter", nil, toxic) {
		t.Fatal("flagged text accepted")
	}
}

func TestTextActionFilter(t *testing.T) {
	if !textVerdict(t, "text_action_filter", nil, "please write a story and explain the plot") {
		t.Fatal("instruction with verbs rejected")
	}
	if textVerdict(t, "text_action_filter", nil, "cabbage umbrella Tuesday") {
		t.Fatal("verb-free text accepted")
	}
}

func TestTextEntityDependencyFilter(t *testing.T) {
	if !textVerdict(t, "text_entity_dependency_filter", nil, "write a poem about a table") {
		t.Fatal("nouny text rejected")
	}
	if textVerdict(t, "text_entity_dependency_filter", nil, "quickly slowly happily") {
		t.Fatal("noun-free text accepted")
	}
}

func TestLanguageIDScoreFilter(t *testing.T) {
	en := "the people talked about their work and the world around them every day"
	if !textVerdict(t, "language_id_score_filter", ops.Params{"lang": "en", "min_score": 0.2}, en) {
		t.Fatal("english rejected")
	}
	zh := "数据处理系统对大型语言模型非常重要因为数据质量决定模型质量"
	if textVerdict(t, "language_id_score_filter", ops.Params{"lang": "en", "min_score": 0.2}, zh) {
		t.Fatal("chinese accepted as english")
	}
	if !textVerdict(t, "language_id_score_filter", ops.Params{"lang": "zh", "min_score": 0.5}, zh) {
		t.Fatal("chinese rejected as chinese")
	}
}

func TestLanguageFilterWritesLangStat(t *testing.T) {
	s := sample.New("the quick brown fox jumps over the lazy dog near the river bank")
	verdict(t, "language_id_score_filter", nil, s)
	if lang, ok := s.StatString("lang"); !ok || lang != "en" {
		t.Fatalf("lang stat = %q, %v", lang, ok)
	}
}

func TestPerplexityFilterFallback(t *testing.T) {
	// Repetitive text has low entropy → low fallback perplexity.
	rep := strings.Repeat("same same same ", 50)
	s := sample.New(rep)
	verdict(t, "perplexity_filter", ops.Params{"max_ppl": 1e9}, s)
	low, _ := s.Stat("perplexity")
	varied := "many different interesting words compose this rather unusual sentence structure"
	s2 := sample.New(varied)
	verdict(t, "perplexity_filter", ops.Params{"max_ppl": 1e9}, s2)
	high, _ := s2.Stat("perplexity")
	if low >= high {
		t.Fatalf("fallback ppl ordering wrong: rep=%v varied=%v", low, high)
	}
}

func TestTokenNumFilter(t *testing.T) {
	// Six words count as 6*4/3 = 8 tokens.
	six := "one two three four five six"
	if !textVerdict(t, "token_num_filter", ops.Params{"min_num": 8, "max_num": 8}, six) {
		t.Fatal("in-range rejected")
	}
	if textVerdict(t, "token_num_filter", ops.Params{"min_num": 9}, six) {
		t.Fatal("too-few accepted")
	}
	if textVerdict(t, "token_num_filter", ops.Params{"min_num": 1, "max_num": 7}, six) {
		t.Fatal("too-many accepted")
	}
}

func TestTokenNumFilterFallback(t *testing.T) {
	s := sample.New("one two three four five six")
	verdict(t, "token_num_filter", ops.Params{"min_num": 1}, s)
	if v, ok := s.Stat("num_tokens"); !ok || v < 6 {
		t.Fatalf("fallback token count = %v, %v", v, ok)
	}
}

func TestQualityScoreFilter(t *testing.T) {
	prose := "the report was written with care and it describes the methods that the team used"
	if !textVerdict(t, "quality_score_filter", nil, prose) {
		t.Fatal("high quality rejected")
	}
	if textVerdict(t, "quality_score_filter", nil, "$$$ ### @@@ ~~ || ^^ %% && ** (( ))") {
		t.Fatal("low quality accepted")
	}
}

func TestQualityScoreFilterHeuristicFallback(t *testing.T) {
	good := sample.New("the report was written with care and it describes the methods that the team used")
	bad := sample.New("$$$ ### @@@ ~~ || ^^ %% && ** (( ))")
	verdict(t, "quality_score_filter", ops.Params{"min_score": 0}, good)
	verdict(t, "quality_score_filter", ops.Params{"min_score": 0}, bad)
	g, _ := good.Stat("quality_score")
	b, _ := bad.Stat("quality_score")
	if g <= b {
		t.Fatalf("heuristic ordering wrong: good=%v bad=%v", g, b)
	}
}

func TestSuffixFilter(t *testing.T) {
	s := sample.New("code")
	s.SetString("meta.suffix", ".py")
	if !verdict(t, "suffix_filter", ops.Params{"suffixes": []string{".py", ".go"}}, s) {
		t.Fatal(".py rejected")
	}
	s2 := sample.New("doc")
	s2.SetString("meta.suffix", ".exe")
	if verdict(t, "suffix_filter", ops.Params{"suffixes": []string{".py"}}, s2) {
		t.Fatal(".exe accepted")
	}
}

func TestSpecifiedFieldFilter(t *testing.T) {
	s := sample.New("x")
	s.SetString("meta.lang_tag", "EN")
	p := ops.Params{"field": "meta.lang_tag", "target_value": []string{"EN"}}
	if !verdict(t, "specified_field_filter", p, s) {
		t.Fatal("matching tag rejected")
	}
	s2 := sample.New("y")
	s2.SetString("meta.lang_tag", "ZH")
	if verdict(t, "specified_field_filter", p, s2) {
		t.Fatal("mismatched tag accepted")
	}
	s3 := sample.New("z") // missing field
	if verdict(t, "specified_field_filter", p, s3) {
		t.Fatal("missing field accepted")
	}
}

func TestSpecifiedNumericFieldFilter(t *testing.T) {
	s := sample.New("repo readme")
	s.Meta = s.Meta.Set("stars", 2000.0)
	p := ops.Params{"field": "meta.stars", "min_value": 1372.0}
	if !verdict(t, "specified_numeric_field_filter", p, s) {
		t.Fatal("starred repo rejected")
	}
	s2 := sample.New("small repo")
	s2.Meta = s2.Meta.Set("stars", 3.0)
	if verdict(t, "specified_numeric_field_filter", p, s2) {
		t.Fatal("unstarred repo accepted")
	}
}

func TestStatsIdempotentAcrossFilters(t *testing.T) {
	// Two filters writing the same stat key must not recompute: the first
	// value is reused, which is what allows fused stat computation.
	s := sample.New("hello world this is text")
	op, _ := ops.Build("word_num_filter", nil)
	f := op.(ops.Filter)
	f.ComputeStats(s)
	v1, _ := s.Stat("num_words")
	s.Text = "changed"
	s.ClearContext()
	f.ComputeStats(s)
	v2, _ := s.Stat("num_words")
	if v1 != v2 {
		t.Fatalf("stat recomputed after being present: %v vs %v", v1, v2)
	}
}

func TestFilterStatKeysDeclared(t *testing.T) {
	names := []string{
		"alphanumeric_filter", "special_characters_filter", "digit_ratio_filter",
		"text_length_filter", "character_repetition_filter",
		"average_line_length_filter", "maximum_line_length_filter",
		"word_num_filter", "word_repetition_filter", "stopwords_filter",
		"flagged_words_filter", "text_action_filter",
		"text_entity_dependency_filter", "language_id_score_filter",
		"perplexity_filter", "token_num_filter", "quality_score_filter",
		"suffix_filter", "specified_field_filter", "specified_numeric_field_filter",
	}
	for _, name := range names {
		op, err := ops.Build(name, nil)
		if err != nil {
			t.Errorf("build %s: %v", name, err)
			continue
		}
		f, ok := op.(ops.Filter)
		if !ok {
			t.Errorf("%s is not a Filter", name)
			continue
		}
		if len(f.StatKeys()) == 0 {
			t.Errorf("%s declares no stat keys", name)
		}
		info, _ := ops.InfoFor(name)
		if info.Category != ops.CategoryFilter {
			t.Errorf("%s category = %s", name, info.Category)
		}
	}
}

func TestWordFiltersShareContext(t *testing.T) {
	s := sample.New("write a story about the damn casino and the lottery")
	for _, name := range []string{"word_num_filter", "stopwords_filter", "flagged_words_filter"} {
		op, _ := ops.Build(name, nil)
		op.(ops.Filter).ComputeStats(s)
	}
	if s.ContextLen() != 1 {
		t.Fatalf("word filters should share one context entry, got %d", s.ContextLen())
	}
}
