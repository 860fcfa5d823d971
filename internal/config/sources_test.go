package config

import (
	"reflect"
	"strings"
	"testing"
)

// TestRecipeSourcesParsing: the sources: key accepts plain spec strings
// and weighted mappings, and DatasetSpec encodes them canonically.
func TestRecipeSourcesParsing(t *testing.T) {
	r, err := ParseRecipe(`
project_name: mixed
sources:
  - "plain.jsonl"
  - spec: "weighted.csv.gz"
    weight: 2.5
  - path: "hub:wiki?docs=40&seed=2"
    weight: 1
    max_samples: 10
process:
  - whitespace_normalization_mapper:
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []SourceSpec{
		{Spec: "plain.jsonl", Weight: 1},
		{Spec: "weighted.csv.gz", Weight: 2.5},
		{Spec: "hub:wiki?docs=40&seed=2", Weight: 1, MaxSamples: 10},
	}
	if !reflect.DeepEqual(r.Sources, want) {
		t.Fatalf("sources = %+v\nwant %+v", r.Sources, want)
	}
	spec := r.DatasetSpec()
	wantSpec := "mix:plain.jsonl,weighted.csv.gz@2.5,hub:wiki?docs=40&seed=2@1:10"
	if spec != wantSpec {
		t.Fatalf("DatasetSpec = %q, want %q", spec, wantSpec)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecipeSourcesErrors(t *testing.T) {
	if _, err := ParseRecipe("sources: notalist\nprocess:\n  - fix_unicode_mapper:\n"); err == nil {
		t.Fatal("scalar sources must error")
	}
	if _, err := ParseRecipe(`
sources:
  - spec: "a.jsonl"
    bogus_key: 1
process:
  - fix_unicode_mapper:
`); err == nil || !strings.Contains(err.Error(), "unknown key") {
		t.Fatal("unknown source key must error")
	}
	if _, err := ParseRecipe(`
sources:
  - weight: 2
process:
  - fix_unicode_mapper:
`); err == nil || !strings.Contains(err.Error(), "missing spec") {
		t.Fatal("missing spec must error")
	}
	r, err := ParseRecipe(`
sources:
  - spec: "a.jsonl"
    weight: -2
process:
  - fix_unicode_mapper:
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("negative weight must fail validation, got %v", err)
	}

	// Explicit zero weight would coerce to the default 1; reject it.
	if _, err := ParseRecipe(`
sources:
  - spec: "a.jsonl"
    weight: 0
process:
  - fix_unicode_mapper:
`); err == nil || !strings.Contains(err.Error(), "weight 0") {
		t.Fatalf("zero weight: err = %v", err)
	}

	// Non-numeric weight must error loudly, not silently default.
	if _, err := ParseRecipe(`
sources:
  - spec: "a.jsonl"
    weight: "2"
process:
  - fix_unicode_mapper:
`); err == nil || !strings.Contains(err.Error(), "weight must be a number") {
		t.Fatalf("string weight: err = %v", err)
	}

	// spec and path together are ambiguous.
	if _, err := ParseRecipe(`
sources:
  - spec: "a.jsonl"
    path: "b.jsonl"
process:
  - fix_unicode_mapper:
`); err == nil || !strings.Contains(err.Error(), "both spec and path") {
		t.Fatalf("spec+path: err = %v", err)
	}

	// A spec the mix grammar would misparse fails validation up front.
	r, err = ParseRecipe(`
sources:
  - spec: "data@2.jsonl"
process:
  - fix_unicode_mapper:
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "mix grammar") {
		t.Fatalf("ambiguous spec must fail validation, got %v", err)
	}
}

// TestDatasetSpecFallsBackToPath: without sources, DatasetSpec is just
// dataset_path; an explicit env input override clears the sources list.
func TestDatasetSpecFallsBackToPath(t *testing.T) {
	r := Default()
	r.DatasetPath = "data.jsonl"
	if r.DatasetSpec() != "data.jsonl" {
		t.Fatalf("DatasetSpec = %q", r.DatasetSpec())
	}
	r.Sources = []SourceSpec{{Spec: "a.jsonl", Weight: 1}}
	if got := r.DatasetSpec(); got != "mix:a.jsonl" {
		t.Fatalf("DatasetSpec = %q, want mix:a.jsonl", got)
	}
	if err := r.ApplyEnv(func(k string) string {
		if k == "DJ_DATASET_PATH" {
			return "override.jsonl"
		}
		return ""
	}); err != nil {
		t.Fatal(err)
	}
	if len(r.Sources) != 0 || r.DatasetSpec() != "override.jsonl" {
		t.Fatalf("env override: sources=%v spec=%q", r.Sources, r.DatasetSpec())
	}
}

// TestKnownRecipeKeys: every advertised key must be accepted by FromMap —
// the list the docs-lint test checks against cannot drift from the parser.
func TestKnownRecipeKeys(t *testing.T) {
	for _, key := range KnownRecipeKeys() {
		if _, err := FromMap(map[string]any{key: nil}); err != nil {
			t.Errorf("FromMap rejects known key %q: %v", key, err)
		}
	}
	if _, err := FromMap(map[string]any{"not_a_key": 1}); err == nil {
		t.Error("unknown key must be rejected")
	}
}
