//go:build ignore

// gen_readme regenerates internal/ops/README.md — the operator reference
// table — from the live registry: every registered op's name, kind,
// streaming capability class (computed by instantiating the op and
// classifying it with the unified planner's plan.Classify) and scenario
// tags, joined with the recipe-parameter reference maintained in
// opParams below.
//
// Run from the repo root:
//
//	go run ./internal/ops/gen_readme.go
//
// The docs-lint test (internal/config/docs_test.go) fails when a
// registered operator is missing from README.md or docs/recipes.md, so
// adding an operator without updating opParams and re-running this
// generator cannot land silently.
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
)

// opParams documents each operator's recipe parameters as name=default.
// Every op also accepts text_key (which text field to process; default
// "text"), so that common parameter is not repeated here.
var opParams = map[string]string{
	"whitespace_normalization_mapper":               "—",
	"fix_unicode_mapper":                            "—",
	"punctuation_normalization_mapper":              "—",
	"remove_non_printing_mapper":                    "—",
	"lowercase_mapper":                              "—",
	"clean_html_mapper":                             "—",
	"sentence_split_mapper":                         "—",
	"expand_contractions_mapper":                    "—",
	"remove_code_fences_mapper":                     "—",
	"clean_email_mapper":                            `replacement=""`,
	"clean_links_mapper":                            `replacement=""`,
	"clean_ip_mapper":                               `replacement=""`,
	"clean_copyright_mapper":                        "—",
	"expand_macro_mapper":                           "—",
	"remove_bibliography_mapper":                    "—",
	"remove_comments_mapper":                        "—",
	"remove_header_mapper":                          "drop_no_head=true",
	"remove_table_text_mapper":                      "—",
	"remove_long_words_mapper":                      "min_len=1, max_len=128",
	"remove_specific_chars_mapper":                  `chars_to_remove="◆●■►▼▲▴∆▻▷❖♡□"`,
	"remove_words_with_incorrect_substrings_mapper": "substrings=[http, www, .com, href, //]",
	"remove_repeat_sentences_mapper":                "lowercase=true, min_repeat_sentence_length=2",
	"replace_content_mapper":                        `pattern="", repl=""`,
	"text_augment_mapper":                           "seed=42, swap_rate=0.05",

	"alphanumeric_filter":            "min_ratio=0.25, max_ratio=1.0",
	"special_characters_filter":      "min_ratio=0.0, max_ratio=0.25",
	"digit_ratio_filter":             "min_ratio=0.0, max_ratio=0.5",
	"text_length_filter":             "min_len=10, max_len=1e9",
	"character_repetition_filter":    "rep_len=10, min_ratio=0.0, max_ratio=0.5",
	"word_repetition_filter":         "rep_len=10, min_ratio=0.0, max_ratio=0.5",
	"word_num_filter":                "min_num=10, max_num=1e9",
	"sentence_num_filter":            "min_num=1, max_num=1e9",
	"average_word_length_filter":     "min_len=2.5, max_len=12",
	"unique_words_ratio_filter":      "min_ratio=0.1, max_ratio=1.0",
	"average_line_length_filter":     "min_len=10, max_len=1e9",
	"maximum_line_length_filter":     "min_len=10, max_len=1e9",
	"stopwords_filter":               `lang="en", min_ratio=0.1, max_ratio=1.0`,
	"flagged_words_filter":           `lang="en", min_ratio=0.0, max_ratio=0.01`,
	"language_id_score_filter":       `lang="en", min_score=0.5`,
	"perplexity_filter":              "max_ppl=1500",
	"token_num_filter":               "min_num=10, max_num=1e9",
	"quality_score_filter":           "min_score=0.5",
	"text_action_filter":             "min_action_num=1",
	"text_entity_dependency_filter":  "min_dependency_num=1",
	"suffix_filter":                  `field="meta.suffix", suffixes=[]`,
	"specified_field_filter":         `field="meta.tag", target_value=[]`,
	"specified_numeric_field_filter": `field="meta.score", min_value=-1e18, max_value=1e18`,

	"document_deduplicator":         "lowercase=true, ignore_non_character=true",
	"document_minhash_deduplicator": "shingle_size=5, bands/rows_per_band derived from jaccard_threshold (0.7 → 19×6), jaccard_threshold=0.7",
	"document_simhash_deduplicator": "ngram=3, max_distance=3",
	"vector_deduplicator":           "dim=256, cosine_threshold=0.9, planes=16",
}

func main() {
	var b strings.Builder
	b.WriteString(`<!-- Generated by gen_readme.go — do not edit by hand.
     Regenerate with: go run ./internal/ops/gen_readme.go -->

# Operator reference

The standardized operator pool (paper §3.2, Table 1/7): every operator
self-registers into the global registry under its paper counterpart's
snake_case name, so recipes written against Data-Juicer's pool carry
over. Kind is the operator contract (mapper edits text in place; filter
computes stats then keeps/drops; deduplicator removes duplicates at
dataset level). The streaming capability class is assigned by the
unified planner (internal/plan) and decides how the op runs under the
shard-pipelined engine (see internal/stream):

- **shard-local** — shards flow through freely and concurrently
- **shared-index** — signature dedups consult a shared index in shard
  order, no barrier
- **barrier** — the engine drains, merges, applies, and re-shards

Every operator also accepts ` + "`text_key`" + ` (which text field to process,
default ` + "`text`" + `). Scenario tags mirror the paper's usage scenarios
(general / web / code / latex / fine-tuning / multilingual / privacy).
See docs/recipes.md for how operators compose into recipes.

| operator | kind | streaming | recipe params (name=default) | scenarios |
|---|---|---|---|---|
`)
	byCat := map[ops.Category][]ops.Info{}
	for _, info := range ops.List() {
		byCat[info.Category] = append(byCat[info.Category], info)
	}
	missing := []string{}
	for _, cat := range []ops.Category{ops.CategoryMapper, ops.CategoryFilter, ops.CategoryDeduplicator} {
		infos := byCat[cat]
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		for _, info := range infos {
			params, ok := opParams[info.Name]
			if !ok {
				missing = append(missing, info.Name)
				continue
			}
			// Ops with required params get a minimal instantiation just
			// for capability classification.
			buildParams := ops.Params{}
			if info.Name == "replace_content_mapper" {
				buildParams["pattern"] = "x"
			}
			op, err := ops.Build(info.Name, buildParams)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gen_readme: build %s: %v\n", info.Name, err)
				os.Exit(1)
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
				info.Name, info.Category, plan.Classify(op), params, info.Usage)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "gen_readme: ops missing from opParams: %v\n", missing)
		os.Exit(1)
	}
	// Reverse check: reject opParams entries for operators that no longer
	// exist, so the reference cannot carry stale rows. (Param *values*
	// are still hand-maintained here — verify them against the op source
	// when editing; the registry does not expose defaults.)
	var stale []string
	for name := range opParams {
		if _, ok := ops.InfoFor(name); !ok {
			stale = append(stale, name)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		fmt.Fprintf(os.Stderr, "gen_readme: opParams entries for unregistered ops: %v\n", stale)
		os.Exit(1)
	}
	b.WriteString(fmt.Sprintf("\n%d operators registered.\n", len(ops.List())))
	if err := os.WriteFile("internal/ops/README.md", []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gen_readme:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote internal/ops/README.md (%d ops)\n", len(ops.List()))
}
