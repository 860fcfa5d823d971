package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAllWorkloadsTinyScale runs the whole benchmark - real binaries,
// every workload, both sections - on corpora of a few hundred documents,
// and holds its output to BENCHMARK.json: the same workload and metric
// names, well-formed and finite, every export equal to its reference.
func TestAllWorkloadsTinyScale(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := run(workloads, []bool{false, true}, 1, 0.05, 0, filepath.Join(t.TempDir(), "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.correct() {
		t.Error("a run failed or an export differed from its reference")
	}

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var want, got []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.Name)
	}
	sameNames(t, "workloads", want, got, nameOK)

	for _, w := range workloads {
		wr := rec.Workloads[w.Name]
		if wr == nil || wr.EndToEnd == nil || wr.PerLayer == nil {
			t.Fatalf("%s: a section is missing from the record", w.Name)
		}
		units := map[string]string{}
		var e2e, layers []string
		for name, s := range wr.EndToEnd.Metrics {
			e2e = append(e2e, name)
			units[name] = s.Unit
			for _, v := range []float64{s.Median, s.Q1, s.Q3, s.Min, s.Max} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s %s: %v is not a positive finite number", w.Name, name, v)
				}
			}
		}
		for name, m := range wr.PerLayer.Metrics {
			layers = append(layers, name)
			units[name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s: %v is not finite", w.Name, name, m.Value)
			}
		}
		sameNames(t, w.Name+" end_to_end", specNames(spec.EndToEnd), e2e, nameOK)
		sameNames(t, w.Name+" per_layer", specNames(spec.PerLayer), layers, nameOK)
		for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
			if units[ms.Name] != ms.Unit {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, ms.Name, units[ms.Name], ms.Unit)
			}
		}
		if len(wr.PerLayer.Spans) == 0 {
			t.Errorf("%s: traced round recorded no spans", w.Name)
		}
		// A resume run executes no op, so it has no top op to name.
		if busy := wr.PerLayer.Metrics["ops.busy_s"].Value; (busy > 0) != (wr.PerLayer.TopOp != "") {
			t.Errorf("%s: ops.busy_s %v but top op %q", w.Name, busy, wr.PerLayer.TopOp)
		}
	}
	if b, s := rec.Workloads["batch_web"], rec.Workloads["stream_web"]; b.Reference != s.Reference {
		t.Errorf("batch_web and stream_web exports differ: %+v vs %+v", b.Reference, s.Reference)
	}
}

func specNames(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sameNames(t *testing.T, what string, want, got []string, ok *regexp.Regexp) {
	t.Helper()
	has := map[string]bool{}
	for _, n := range got {
		if !ok.MatchString(n) {
			t.Errorf("%s: name %q is malformed", what, n)
		}
		has[n] = true
	}
	for _, n := range want {
		if !has[n] {
			t.Errorf("%s: BENCHMARK.json names %q, the harness does not emit it", what, n)
		}
		delete(has, n)
	}
	for n := range has {
		t.Errorf("%s: the harness emits %q, BENCHMARK.json does not name it", what, n)
	}
}

// The quartile method is the one the benchmark contract names: Python's
// statistics.quantiles(v, n=4). The expected values are Python's. Up to
// five samples every sample is its own round, so the summary's quartiles
// are the samples' own.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{0.81, 0.79, 0.8, 0.84, 0.78}, 0.785, 0.8, 0.825},
	}
	for _, c := range cases {
		s := summarize("s", c.in)
		for _, p := range [][2]float64{{s.Q1, c.q1}, {s.Median, c.q2}, {s.Q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", c.in, s.Q1, s.Median, s.Q3, c.q1, c.q2, c.q3)
				break
			}
		}
		if s.N != len(c.in) {
			t.Errorf("summarize(%v).N = %d", c.in, s.N)
		}
	}
	if s := summarize("s", nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(sorted); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A window's spread is taken between rounds, not between invocations: one
// slow invocation in a round of four does not move that round's median.
func TestSummarizeRounds(t *testing.T) {
	v := []float64{1, 1, 9, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5}
	s := summarize("s", v)
	want := []float64{1, 2, 3, 4, 5}
	if len(s.Rounds) != len(want) {
		t.Fatalf("rounds %v, want %v", s.Rounds, want)
	}
	for i := range want {
		if s.Rounds[i] != want[i] {
			t.Fatalf("rounds %v, want %v", s.Rounds, want)
		}
	}
	if s.N != 20 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Q1 != 1.5 || s.Q3 != 4.5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(median float64) summary {
		return summary{Median: median, Q1: median * 0.99, Q3: median * 1.01, N: 5}
	}
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "docs_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name     string
		spec     metricSpec
		old, new summary
		want     string
	}{
		{"lower: within the bound", lower, tight(1), tight(1.08), unchanged},
		{"lower: slower past the bound", lower, tight(1), tight(1.2), regressed},
		{"lower: faster past the bound", lower, tight(1), tight(0.8), improved},
		{"higher: fewer docs/s past the bound", higher, tight(1000), tight(850), regressed},
		{"higher: more docs/s past the bound", higher, tight(1000), tight(1200), improved},
		{"higher: within the bound", higher, tight(1000), tight(950), unchanged},
		{"spread wider than the bound hides a regression", lower, summary{Median: 1, Q1: 0.9, Q3: 1.1}, tight(1.3), unresolved},
		{"spread on the new side counts too", lower, tight(1), summary{Median: 1, Q1: 0.9, Q3: 1.1}, unresolved},
		{"no base to take a ratio of", lower, summary{}, tight(1), unresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "batch_web"})
	rec := func(wall float64, failed int) *record {
		return &record{Workloads: map[string]*workloadRecord{"batch_web": {EndToEnd: &endToEndRecord{
			Attempted: 5, Failed: failed,
			Metrics: map[string]summary{"wall_s": {Unit: "s", Median: wall, Q1: wall, Q3: wall, N: 5}},
		}}}}
	}
	var out bytes.Buffer
	if compareRecords(&out, spec, rec(1, 0), rec(1.05, 0)) {
		t.Errorf("a change within the bound was reported as bad:\n%s", out.String())
	}
	out.Reset()
	if !compareRecords(&out, spec, rec(1, 0), rec(1.5, 0)) || !strings.Contains(out.String(), regressed) {
		t.Errorf("a 50%% slowdown was not reported as regressed:\n%s", out.String())
	}
	if !compareRecords(&out, spec, rec(1, 0), rec(1, 1)) {
		t.Error("a failed run in the new record was not reported as bad")
	}
	if !compareRecords(&out, spec, rec(1, 0), &record{Workloads: map[string]*workloadRecord{}}) {
		t.Error("a workload missing from the new record was not reported as bad")
	}
}
