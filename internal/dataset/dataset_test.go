package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

func texts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sample text number %d", i)
	}
	return out
}

func TestFromTextsAndLen(t *testing.T) {
	d := FromTexts(texts(5))
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Samples[3].Text != "sample text number 3" {
		t.Fatalf("sample 3 = %q", d.Samples[3].Text)
	}
}

func TestMapParallelAppliesAll(t *testing.T) {
	d := FromTexts(texts(1000))
	var count int64
	err := d.Map(8, func(s *sample.Sample) error {
		atomic.AddInt64(&count, 1)
		s.Text = strings.ToUpper(s.Text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("applied %d times", count)
	}
	for i, s := range d.Samples {
		if !strings.HasPrefix(s.Text, "SAMPLE") {
			t.Fatalf("sample %d not mapped: %q", i, s.Text)
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	d := FromTexts(texts(100))
	boom := errors.New("boom")
	err := d.Map(4, func(s *sample.Sample) error {
		if strings.HasSuffix(s.Text, "42") {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapSingleWorkerOrder(t *testing.T) {
	d := FromTexts(texts(10))
	var order []string
	err := d.Map(1, func(s *sample.Sample) error {
		order = append(order, s.Text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != fmt.Sprintf("sample text number %d", i) {
			t.Fatalf("order[%d] = %q", i, got)
		}
	}
}

func TestFilterSplitsAndPreservesOrder(t *testing.T) {
	d := FromTexts([]string{"keep a", "drop b", "keep c", "drop d", "keep e"})
	kept, dropped := d.Filter(4, func(s *sample.Sample) bool {
		return strings.HasPrefix(s.Text, "keep")
	})
	if kept.Len() != 3 || len(dropped) != 2 {
		t.Fatalf("kept %d dropped %d", kept.Len(), len(dropped))
	}
	if kept.Samples[0].Text != "keep a" || kept.Samples[2].Text != "keep e" {
		t.Fatalf("order broken: %v", kept.Samples)
	}
	if dropped[0].Text != "drop b" {
		t.Fatalf("dropped order: %q", dropped[0].Text)
	}
}

func TestFilterEmpty(t *testing.T) {
	d := New(nil)
	kept, dropped := d.Filter(4, func(*sample.Sample) bool { return true })
	if kept.Len() != 0 || len(dropped) != 0 {
		t.Fatal("empty filter misbehaved")
	}
}

func TestMapIndexed(t *testing.T) {
	d := FromTexts(texts(50))
	seen := make([]int32, 50)
	err := d.MapIndexed(8, func(i int, s *sample.Sample) error {
		atomic.AddInt32(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromTexts([]string{"a1", "a2"})
	b := FromTexts([]string{"b1"})
	c := Concat(a, b)
	if c.Len() != 3 || c.Samples[2].Text != "b1" {
		t.Fatalf("Concat = %v", c.Samples)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := FromTexts([]string{"x"})
	d.Samples[0].SetStat("n", 1)
	c := d.Clone()
	c.Samples[0].Text = "changed"
	c.Samples[0].SetStat("n", 2)
	if d.Samples[0].Text != "x" {
		t.Fatal("clone shares text")
	}
	if v, _ := d.Samples[0].Stat("n"); v != 1 {
		t.Fatal("clone shares stats")
	}
}

func TestFingerprintStability(t *testing.T) {
	d1 := FromTexts(texts(20))
	d2 := FromTexts(texts(20))
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatal("identical datasets must share fingerprints")
	}
	d2.Samples[7].Text += "!"
	if d1.Fingerprint() == d2.Fingerprint() {
		t.Fatal("text change must change fingerprint")
	}
	d3 := FromTexts(texts(20))
	d3.Samples[0].SetStat("s", 1)
	if d1.Fingerprint() == d3.Fingerprint() {
		t.Fatal("stats change must change fingerprint")
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	d1 := FromTexts([]string{"a", "b"})
	d2 := FromTexts([]string{"b", "a"})
	if d1.Fingerprint() == d2.Fingerprint() {
		t.Fatal("order must matter")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	d := FromTexts(texts(10))
	d.Samples[0].SetString("meta.src", "unit")
	d.Samples[1].SetStat("wc", 4)
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("round trip len = %d", got.Len())
	}
	if v, _ := got.Samples[0].GetString("meta.src"); v != "unit" {
		t.Fatalf("meta lost: %q", v)
	}
	if v, ok := got.Samples[1].Stat("wc"); !ok || v != 4 {
		t.Fatalf("stat lost: %v %v", v, ok)
	}
	if got.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprint must survive round trip")
	}
}

func TestJSONLBadLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"text\":\"ok\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestSaveLoadJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "data.jsonl")
	d := FromTexts(texts(5))
	if err := d.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("loaded %d", got.Len())
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must be >= 1")
	}
	if Workers(-3) < 1 {
		t.Fatal("Workers(-3) must be >= 1")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers(7) must be 7")
	}
}

func TestTotalBytes(t *testing.T) {
	d := FromTexts([]string{"ab", "cde"})
	if d.TotalBytes() != 5 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes())
	}
}

// Property: Filter partitions — kept + dropped == total, with no overlap.
func TestPropertyFilterPartition(t *testing.T) {
	f := func(ts []string, mod uint8) bool {
		d := FromTexts(ts)
		m := int(mod%5) + 1
		kept, dropped := d.Filter(4, func(s *sample.Sample) bool {
			return len(s.Text)%m == 0
		})
		if kept.Len()+len(dropped) != len(ts) {
			return false
		}
		seen := make(map[*sample.Sample]bool)
		for _, s := range kept.Samples {
			seen[s] = true
		}
		for _, s := range dropped {
			if seen[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fingerprints are deterministic across repeated computation.
func TestPropertyFingerprintDeterministic(t *testing.T) {
	f := func(ts []string) bool {
		d := FromTexts(ts)
		return d.Fingerprint() == d.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
