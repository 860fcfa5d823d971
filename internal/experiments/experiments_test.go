package experiments

import (
	"strings"
	"testing"

	"repro/internal/quality"
)

// The experiment tests assert the paper's qualitative shape at Quick
// scale: orderings and win/lose structure, not absolute numbers.

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("points = %d", len(res.Points))
	}
	score := map[string]map[int]float64{}
	for _, p := range res.Points {
		if score[p.Recipe] == nil {
			score[p.Recipe] = map[int]float64{}
		}
		score[p.Recipe][p.Budget] = p.Score
	}
	for _, budget := range []int{50, 100, 150} {
		dj := score["RedPajama+Pile (Data-Juicer)"][budget]
		rp := score["RedPajama"][budget]
		pile := score["RedPajama+Pile"][budget]
		if dj <= rp || dj <= pile {
			t.Errorf("budget %d: refined %.2f must dominate rp %.2f and pile %.2f", budget, dj, rp, pile)
		}
	}
	// Scores rise with tokens for every recipe.
	for recipe, by := range score {
		if !(by[150] > by[50]) {
			t.Errorf("%s: score must rise with budget: %v", recipe, by)
		}
	}
	if !strings.Contains(res.Render, "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]float64{}
	for _, r := range res.Rows {
		byModel[r.Model] = r.Score
	}
	dj := byModel["LLaMA-1.3B (Data-Juicer)"]
	if dj <= byModel["Falcon-1.3B"] || dj <= byModel["Pythia-1.4B"] {
		t.Errorf("refined@150 should beat raw baselines at 2x budget: %v", byModel)
	}
	if byModel["+ Alpaca-CoT-IFT"] <= dj {
		t.Errorf("IFT continuation should help: %v", byModel)
	}
	if byModel["+ Our Refined IFT"] <= byModel["+ Alpaca-CoT-IFT"] {
		t.Errorf("refined IFT should beat raw IFT with 1/3 volume: %v", byModel)
	}
	// Table 9 renders the same models per task.
	t9 := Table9(res)
	if !strings.Contains(t9, "MMLU") || !strings.Contains(t9, "Average") {
		t.Fatalf("table 9 = %q", t9)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.DJWins <= r.CompWins {
			t.Errorf("%s vs %s: DJ wins %d should beat competitor %d (ties %d)",
				r.DJName, r.Competitor, r.DJWins, r.CompWins, r.Ties)
		}
		if r.Ties == 0 {
			t.Errorf("%s: expected ties under the noisy judge", r.Competitor)
		}
	}
	// Data efficiency: DJ uses no more samples than the competitor in the
	// Alpaca and Belle pairings.
	if res.Rows[0].DJSize >= res.Rows[0].CompSize {
		t.Errorf("alpaca row: DJ should use less data: %+v", res.Rows[0])
	}
	if res.Rows[2].DJSize >= res.Rows[2].CompSize {
		t.Errorf("belle row: DJ should use less data: %+v", res.Rows[2])
	}
}

func TestTable5And4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Quick()
	t5, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]quality.Metrics{}
	for _, r := range t5.Rows {
		byName[r.Classifier] = r.Metrics
	}
	if byName["GPT-3"].F1 < 0.85 {
		t.Errorf("GPT-3 F1 = %v, want high", byName["GPT-3"].F1)
	}
	if byName["Chinese"].F1 < 0.8 {
		t.Errorf("Chinese F1 = %v, want high", byName["Chinese"].F1)
	}
	// The code classifier must be weak — its labels (star counts) carry no
	// textual signal, the paper's own finding.
	if byName["Code"].F1 > byName["GPT-3"].F1-0.2 {
		t.Errorf("Code F1 = %v should lag GPT-3 %v clearly", byName["Code"].F1, byName["GPT-3"].F1)
	}

	t4, err := Table4(s, t5)
	if err != nil {
		t.Fatal(err)
	}
	gpt3 := t4.Rows[0]
	if gpt3.KeepLabel <= 0 || gpt3.KeepLabel >= 1 {
		t.Errorf("label keep ratio = %v", gpt3.KeepLabel)
	}
	if gpt3.KeepPareto >= gpt3.KeepLabel {
		t.Errorf("pareto (%v) should keep fewer than label (%v)", gpt3.KeepPareto, gpt3.KeepLabel)
	}
	if !strings.Contains(t4.Render, "Pareto") {
		t.Fatal("table 4 render incomplete")
	}
}

// raceEnabled is set by race_on_test.go when the race detector is active.
var raceEnabled bool

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("cross-system CPU-time comparison is not meaningful under the race detector")
	}
	s := Quick()
	s.PerfDocs = [3]int{40, 80, 150} // keep CI fast
	res, err := Fig8(s, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Data-Juicer must beat both baselines on time for every dataset.
	times := map[string]map[string]int64{}
	for _, c := range res.Cells {
		if times[c.Dataset] == nil {
			times[c.Dataset] = map[string]int64{}
		}
		times[c.Dataset][c.System] = int64(c.Elapsed)
	}
	for ds, bySystem := range times {
		if bySystem["Data-Juicer"] >= bySystem["RedPajama"] {
			t.Errorf("%s: DJ time %v should beat RedPajama %v", ds, bySystem["Data-Juicer"], bySystem["RedPajama"])
		}
		if bySystem["Data-Juicer"] >= bySystem["Dolma"] {
			t.Errorf("%s: DJ time %v should beat Dolma %v", ds, bySystem["Data-Juicer"], bySystem["Dolma"])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		// Pooled zero-allocation tokenization shrank the absolute cost
		// fusion saves, so at the smallest scale the fused-vs-unfused
		// wall-clock margin sits inside race-instrumentation noise.
		// The uninstrumented build still asserts the ordering.
		t.Skip("fused-vs-unfused wall-clock margins are not meaningful under the race detector")
	}
	s := Quick()
	s.PerfDocs = [3]int{50, 120, 300}
	res, err := Fig9(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.AllFused >= r.AllUnfused {
			t.Errorf("%s: fusion should save total time: fused=%v unfused=%v", r.Label, r.AllFused, r.AllUnfused)
		}
		if r.FusibleFused >= r.FusibleUnfused {
			t.Errorf("%s: fusion should save fusible time: fused=%v unfused=%v", r.Label, r.FusibleFused, r.FusibleUnfused)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Quick()
	s.DistDocs = 400
	res, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	// Collect ray/beam times per dataset per node count.
	times := map[string]map[string]map[int]int64{}
	for _, c := range res.Cells {
		if times[c.Dataset] == nil {
			times[c.Dataset] = map[string]map[int]int64{}
		}
		if times[c.Dataset][string(c.Engine)] == nil {
			times[c.Dataset][string(c.Engine)] = map[int]int64{}
		}
		times[c.Dataset][string(c.Engine)][c.Nodes] = int64(c.Total)
	}
	for ds, byEngine := range times {
		ray := byEngine["ray"]
		if ray[16] >= ray[1] {
			t.Errorf("%s: ray should scale: 1 node %v vs 16 nodes %v", ds, ray[1], ray[16])
		}
		rayScale := float64(ray[1]) / float64(ray[16])
		beam := byEngine["beam"]
		beamScale := float64(beam[1]) / float64(beam[16])
		if rayScale < 2*beamScale {
			t.Errorf("%s: ray scaling (%.1fx) should dwarf beam (%.1fx)", ds, rayScale, beamScale)
		}
		if byEngine["local"][1] >= ray[1] {
			t.Errorf("%s: single-machine executor should beat 1-node ray", ds)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var total float64
	for _, r := range res.Rows {
		if r.Tokens <= 0 {
			t.Errorf("%s tokens = %d", r.Component, r.Tokens)
		}
		total += r.Proportion
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("proportions sum to %v", total)
	}
	// CommonCrawl dominates, as in the paper.
	if res.Rows[0].Component != "CommonCrawl" {
		t.Errorf("largest component = %s", res.Rows[0].Component)
	}
}

func TestTable8Shape(t *testing.T) {
	res, err := Table8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var langTotal int
	for _, n := range res.Counts["Language"] {
		langTotal += n
	}
	if langTotal != 39 {
		t.Fatalf("language census = %d, want 39 datasets", langTotal)
	}
	if res.Counts["Language"]["English"] <= res.Counts["Language"]["Chinese"] {
		t.Errorf("census skew wrong: %v", res.Counts["Language"])
	}
}

func TestFig3HPOShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Quick()
	s.SourceDocs = 80
	res, err := Fig3HPO(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 24 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	// The best mix should lean on clean sources: w_wiki high.
	if res.Best.Params["w_wiki"] < 0.5 {
		t.Errorf("best mix underweights wiki: %+v", res.Best.Params)
	}
	if !strings.Contains(res.Render, "importance") {
		t.Fatal("render missing analysis")
	}
}

func TestDescriptiveTables(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"formatter", "mapper", "filter", "deduplicator", "word_num_filter"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("table 1 missing %q", want)
		}
	}
	t6 := Table6()
	for _, want := range []string{"gpt3", "chinese", "code", "pareto", "label noise"} {
		if !strings.Contains(t6, want) {
			t.Fatalf("table 6 missing %q", want)
		}
	}
}
