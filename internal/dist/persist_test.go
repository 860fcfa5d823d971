package dist

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfileSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles", "recipe.json")

	// Missing sidecar: cold start, not an error.
	set, err := LoadProfiles(path)
	if err != nil {
		t.Fatalf("missing sidecar must not error: %v", err)
	}
	if set.Len() != 0 {
		t.Fatalf("cold set holds %d profiles", set.Len())
	}

	set.Observe("k1", "word_num_filter", 1500, 0.5)
	set.Observe("k2", "stopwords_filter", 9000, 0.9)
	set.Observe("", "anonymous", 10, 1) // empty keys must not persist
	if err := SaveProfiles(path, set); err != nil {
		t.Fatal(err)
	}

	back, err := LoadProfiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip holds %d profiles, want 2", back.Len())
	}
	p, ok := back.Lookup("k1")
	if !ok || p.Name != "word_num_filter" || p.Runs != 1 {
		t.Fatalf("lookup k1 = %+v, %v", p, ok)
	}
	if p.CostNSPerSample != 1500 || p.Selectivity != 0.5 {
		t.Fatalf("first observation must land unsmoothed: %+v", p)
	}
}

func TestProfileSetObserveFoldsEWMA(t *testing.T) {
	set := NewProfileSet()
	set.Observe("k", "op", 1000, 1.0)
	set.Observe("k", "op", 2000, 0.5)
	p, _ := set.Lookup("k")
	if p.Runs != 2 {
		t.Fatalf("runs = %d", p.Runs)
	}
	wantCost := profileAlpha*2000 + (1-profileAlpha)*1000
	if diff := p.CostNSPerSample - wantCost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = %v, want %v", p.CostNSPerSample, wantCost)
	}
	// Garbage observations carry no signal.
	set.Observe("k", "op", 0, 1)
	set.Observe("k", "op", -5, 1)
	if q, _ := set.Lookup("k"); q.Runs != 2 {
		t.Fatalf("non-positive cost folded: %+v", q)
	}
}

func TestLoadProfilesRejectsGarbage(t *testing.T) {
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfiles(bad); err == nil {
		t.Fatal("malformed sidecar must error so callers can fall back to static planning")
	}

	skew := filepath.Join(dir, "skew.json")
	if err := os.WriteFile(skew, []byte(`{"version": 99, "profiles": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfiles(skew); err == nil {
		t.Fatal("version-skewed sidecar must error")
	}
}
