package plan

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/sample"
)

// testRecipe builds a planner-input recipe over the given op specs with
// profiles disabled (static planning) unless a test re-enables them.
func testRecipe(specs ...config.OpSpec) *config.Recipe {
	r := config.Default()
	r.ProjectName = "plan-test"
	r.UseCache = false
	r.UseProfiles = false
	r.WorkDir = ""
	r.Process = specs
	return r
}

func op(name string) config.OpSpec { return config.OpSpec{Name: name} }

func mustPlan(t *testing.T, r *config.Recipe) *Plan {
	t.Helper()
	p, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustBuildOp(t *testing.T, name string, p ops.Params) ops.OP {
	t.Helper()
	o, err := ops.Build(name, p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return o
}

// figure9Specs mirrors the Figure 9 experiment recipe: 5 Mappers,
// 8 Filters, 1 Deduplicator, with 5 of the filters fusible (word/line
// context users).
func figure9Specs() []config.OpSpec {
	return []config.OpSpec{
		op("fix_unicode_mapper"),
		op("clean_email_mapper"),
		op("clean_links_mapper"),
		op("remove_long_words_mapper"),
		op("whitespace_normalization_mapper"),
		op("alphanumeric_filter"),       // char, not fusible
		op("special_characters_filter"), // char, not fusible
		op("text_length_filter"),        // char, not fusible
		op("word_num_filter"),           // words ctx
		op("word_repetition_filter"),    // words ctx
		op("stopwords_filter"),          // words ctx
		op("flagged_words_filter"),      // words ctx
		op("perplexity_filter"),         // words ctx
		op("document_deduplicator"),
	}
}

func TestPlanNoFusionPreservesOrder(t *testing.T) {
	r := testRecipe(figure9Specs()...)
	r.OpFusion = false
	p := mustPlan(t, r)
	if len(p.Nodes) != len(r.Process) {
		t.Fatalf("plan size %d", len(p.Nodes))
	}
	for i, spec := range r.Process {
		if p.Nodes[i].Op.Name() != spec.Name {
			t.Fatalf("order changed at %d: %s", i, p.Nodes[i].Op.Name())
		}
	}
}

func TestPlanFusesWordFilters(t *testing.T) {
	p := mustPlan(t, testRecipe(figure9Specs()...))
	// 5 mappers + (8 filters -> 3 char filters + 1 fused of 5) + 1 dedup = 10.
	if len(p.Nodes) != 10 {
		t.Fatalf("plan size = %d\n%s", len(p.Nodes), p.Describe())
	}
	var fused *FusedFilter
	fusedIdx := -1
	for i, o := range p.Ops() {
		if f, ok := o.(*FusedFilter); ok {
			if fused != nil {
				t.Fatal("more than one fused op")
			}
			fused = f
			fusedIdx = i
		}
	}
	if fused == nil {
		t.Fatalf("no fused op in plan:\n%s", p.Describe())
	}
	if len(fused.Members()) != 5 {
		t.Fatalf("fused %d members, want 5: %s", len(fused.Members()), fused.Name())
	}
	// Reordering: the fused (expensive) op must come after the cheap char
	// filters within its group, i.e. last before the deduplicator.
	if fusedIdx != len(p.Nodes)-2 {
		t.Fatalf("fused op at %d, want %d:\n%s", fusedIdx, len(p.Nodes)-2, p.Describe())
	}
	if _, ok := p.Nodes[len(p.Nodes)-1].Op.(ops.Deduplicator); !ok {
		t.Fatal("deduplicator must stay the barrier at the end")
	}
	// The fused node carries its members' identity keys for profiling.
	if len(p.Nodes[fusedIdx].MemberKeys) != 5 {
		t.Fatalf("fused node has %d member keys", len(p.Nodes[fusedIdx].MemberKeys))
	}
}

func TestPlanMapperBarriers(t *testing.T) {
	// Filters separated by a mapper must not fuse across the barrier.
	p := mustPlan(t, testRecipe(
		op("word_num_filter"),
		op("whitespace_normalization_mapper"),
		op("stopwords_filter"),
	))
	if len(p.Nodes) != 3 {
		t.Fatalf("barrier crossed:\n%s", p.Describe())
	}
	for _, o := range p.Ops() {
		if _, ok := o.(*FusedFilter); ok {
			t.Fatal("fused across a mapper barrier")
		}
	}
}

func TestPlanSingleFusibleReordered(t *testing.T) {
	// One fusible filter in a group: not fused, but still reordered after
	// cheaper filters ("reorder the only fusible OP" branch in Fig. 6).
	p := mustPlan(t, testRecipe(
		op("word_repetition_filter"), // cost 3, fusible
		op("text_length_filter"),     // cost 1
	))
	if len(p.Nodes) != 2 {
		t.Fatalf("plan = %v", p.Describe())
	}
	if p.Nodes[0].Op.Name() != "text_length_filter" || p.Nodes[1].Op.Name() != "word_repetition_filter" {
		t.Fatalf("reorder failed:\n%s", p.Describe())
	}
	// Provenance must say the reorder pass moved them.
	found := false
	for _, note := range p.Nodes[0].Provenance {
		if strings.Contains(note, "reorder:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reorder provenance on the moved op: %v", p.Nodes[0].Provenance)
	}
}

func TestPlanDisjointContextsFuseSeparately(t *testing.T) {
	// Word-context and line-context filters form separate fused clusters.
	p := mustPlan(t, testRecipe(
		op("word_num_filter"),
		op("average_line_length_filter"),
		op("stopwords_filter"),
		op("maximum_line_length_filter"),
	))
	if len(p.Nodes) != 2 {
		t.Fatalf("want 2 fused clusters:\n%s", p.Describe())
	}
	for _, o := range p.Ops() {
		f, ok := o.(*FusedFilter)
		if !ok {
			t.Fatalf("non-fused op %s", o.Name())
		}
		if len(f.Members()) != 2 {
			t.Fatalf("cluster size = %d", len(f.Members()))
		}
	}
}

func TestClassifyCapabilities(t *testing.T) {
	r := testRecipe(
		op("whitespace_normalization_mapper"),
		op("word_num_filter"),
		op("document_deduplicator"),
		op("document_minhash_deduplicator"),
	)
	built, err := r.BuildOps()
	if err != nil {
		t.Fatal(err)
	}
	want := []Capability{ShardLocal, ShardLocal, SharedIndex, Barrier}
	for i, o := range built {
		if got := Classify(o); got != want[i] {
			t.Errorf("%s: classified %v, want %v", o.Name(), got, want[i])
		}
	}
}

func TestPlacementPhasesAndCacheBoundary(t *testing.T) {
	r := testRecipe(
		op("whitespace_normalization_mapper"), // cacheable (phase 0 leading run)
		op("document_deduplicator"),           // shared index: ends the run
		op("text_length_filter"),              // not cacheable
		op("document_minhash_deduplicator"),   // barrier: closes phase 0
		op("word_num_filter"),                 // cacheable (phase 1 leading run)
	)
	r.OpFusion = false
	p := mustPlan(t, r)
	wantPhase := []int{0, 0, 0, 0, 1}
	wantCache := []bool{true, false, false, false, true}
	for i := range p.Nodes {
		if p.Nodes[i].Phase != wantPhase[i] {
			t.Errorf("op %d phase = %d, want %d", i, p.Nodes[i].Phase, wantPhase[i])
		}
		if p.Nodes[i].StreamCacheable != wantCache[i] {
			t.Errorf("op %d cacheable = %v, want %v", i, p.Nodes[i].StreamCacheable, wantCache[i])
		}
	}
}

func TestMeasuredCostReordersGroup(t *testing.T) {
	// Three non-fusing filters (only word_repetition declares a context):
	// static hints order them text_length(1), digit_ratio(1), rep(3);
	// the measured profiles below invert that.
	r := testRecipe(
		op("text_length_filter"),
		op("digit_ratio_filter"),
		op("word_repetition_filter"),
	)
	set := dist.NewProfileSet()
	for _, spec := range r.Process {
		switch spec.Name {
		case "word_repetition_filter":
			set.Observe(opKey(spec), spec.Name, 500, 0.1) // rank 50
		case "text_length_filter":
			set.Observe(opKey(spec), spec.Name, 4000, 1.0) // rank 4000
		case "digit_ratio_filter":
			set.Observe(opKey(spec), spec.Name, 1000, 0.8) // rank 800
		}
	}
	p, err := BuildWithProfiles(r, set)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{p.Nodes[0].Op.Name(), p.Nodes[1].Op.Name(), p.Nodes[2].Op.Name()}
	want := []string{"word_repetition_filter", "digit_ratio_filter", "text_length_filter"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("measured order = %v, want %v\n%s", got, want, p.Explain())
		}
	}
	if p.MeasuredOps != 3 {
		t.Fatalf("MeasuredOps = %d, want 3", p.MeasuredOps)
	}
	// Static order must differ (hint order: text_length=1, digit=1, rep=3).
	static, err := BuildWithProfiles(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.Nodes[0].Op.Name() == "word_repetition_filter" {
		t.Fatal("static plan already matches the measured order; test is vacuous")
	}
}

func TestPartialProfilesFallBackToStaticRanks(t *testing.T) {
	r := testRecipe(
		op("text_length_filter"),
		op("digit_ratio_filter"),
		op("word_repetition_filter"),
	)
	// Only one of three filters measured: the group must fall back to
	// static hints — mixing nanoseconds with hint units is meaningless.
	set := dist.NewProfileSet()
	set.Observe(opKey(r.Process[2]), "word_repetition_filter", 500, 0.1)
	p, err := BuildWithProfiles(r, set)
	if err != nil {
		t.Fatal(err)
	}
	staticOrder := []string{"text_length_filter", "digit_ratio_filter", "word_repetition_filter"}
	for i, want := range staticOrder {
		if p.Nodes[i].Op.Name() != want {
			t.Fatalf("partial profiles changed the order at %d: got %s\n%s",
				i, p.Nodes[i].Op.Name(), p.Explain())
		}
	}
}

func TestFusedMemberOrderCanonicalUnderProfiles(t *testing.T) {
	// Profiles that would reorder the members individually must not
	// change the fused op's member order (or its name/identity): member
	// order is canonical recipe order, so cache keys stay stable as
	// profiles sharpen.
	r := testRecipe(
		op("word_num_filter"),
		op("stopwords_filter"),
	)
	set := dist.NewProfileSet()
	set.Observe(opKey(r.Process[0]), "word_num_filter", 9000, 1.0)
	set.Observe(opKey(r.Process[1]), "stopwords_filter", 100, 0.2)
	p, err := BuildWithProfiles(r, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 1 {
		t.Fatalf("want one fused node:\n%s", p.Describe())
	}
	if name := p.Nodes[0].Op.Name(); name != "fused(word_num_filter,stopwords_filter)" {
		t.Fatalf("member order not canonical: %s", name)
	}
}

func TestBuildReadsSidecar(t *testing.T) {
	r := testRecipe(
		op("text_length_filter"),
		op("digit_ratio_filter"),
		op("word_repetition_filter"),
	)
	r.UseProfiles = true
	r.WorkDir = t.TempDir()

	// Cold: no sidecar, static planning.
	cold := mustPlan(t, r)
	if cold.MeasuredOps != 0 {
		t.Fatalf("cold plan measured %d ops", cold.MeasuredOps)
	}
	if cold.ProfilePath == "" {
		t.Fatal("profile-enabled recipe has no sidecar path")
	}

	// Persist measurements, rebuild: the plan must now be measured and
	// reordered.
	set := dist.NewProfileSet()
	set.Observe(opKey(r.Process[2]), "word_repetition_filter", 500, 0.1)
	set.Observe(opKey(r.Process[0]), "text_length_filter", 4000, 1.0)
	set.Observe(opKey(r.Process[1]), "digit_ratio_filter", 1000, 0.8)
	if err := dist.SaveProfiles(cold.ProfilePath, set); err != nil {
		t.Fatal(err)
	}
	warm := mustPlan(t, r)
	if warm.MeasuredOps != 3 {
		t.Fatalf("warm plan measured %d ops, want 3\n%s", warm.MeasuredOps, warm.Explain())
	}
	if warm.Nodes[0].Op.Name() != "word_repetition_filter" {
		t.Fatalf("warm plan not reordered by the sidecar:\n%s", warm.Explain())
	}

	// use_profiles off: the sidecar is ignored.
	r.UseProfiles = false
	static := mustPlan(t, r)
	if static.MeasuredOps != 0 || static.ProfilePath != "" {
		t.Fatalf("profiles disabled but plan measured %d ops (sidecar %q)",
			static.MeasuredOps, static.ProfilePath)
	}
}

func TestExplainRendersProvenance(t *testing.T) {
	p := mustPlan(t, testRecipe(figure9Specs()...))
	out := p.Explain()
	for _, want := range []string{
		"validate:", "predict:", "reorder:", "fuse:", "placement:", "cache-boundary:",
		"[shard-local]", "[shared-index]", "filters share context",
		"shard-cacheable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// --- FusedFilter semantics (moved from internal/core with the type) ---

func TestFusedFilterSemantics(t *testing.T) {
	members := []ops.Filter{
		mustBuildOp(t, "word_num_filter", ops.Params{"min_num": 3}).(ops.Filter),
		mustBuildOp(t, "stopwords_filter", ops.Params{"min_ratio": 0.2}).(ops.Filter),
	}
	fused := NewFusedFilter(members)
	if !strings.HasPrefix(fused.Name(), "fused(") {
		t.Fatalf("name = %s", fused.Name())
	}
	if got := fused.StatKeys(); len(got) != 2 {
		t.Fatalf("stat keys = %v", got)
	}
	s := sample.New("the cat and the dog sat on the mat")
	if err := fused.ComputeStats(s); err != nil {
		t.Fatal(err)
	}
	if !fused.Keep(s) {
		t.Fatal("good sample rejected")
	}
	// Only one shared context entry despite two members.
	if s.ContextLen() != 1 {
		t.Fatalf("context entries = %d", s.ContextLen())
	}
	bad := sample.New("too short")
	fused.ComputeStats(bad)
	if fused.Keep(bad) {
		t.Fatal("short sample kept (AND semantics broken)")
	}
}

func TestFusedFilterEquivalentToSequential(t *testing.T) {
	// Fusion must not change verdicts: fused(A,B).Keep == A.Keep && B.Keep.
	texts := []string{
		"the cat and the dog sat on the mat with a hat",
		"short",
		"buy widgets buy widgets buy widgets buy widgets buy widgets",
		"a reasonable sentence about the weather and the news of the day",
		"",
	}
	a := mustBuildOp(t, "word_num_filter", ops.Params{"min_num": 5}).(ops.Filter)
	b := mustBuildOp(t, "stopwords_filter", ops.Params{"min_ratio": 0.2}).(ops.Filter)
	fused := NewFusedFilter([]ops.Filter{a, b})
	for _, txt := range texts {
		s1 := sample.New(txt)
		a.ComputeStats(s1)
		b.ComputeStats(s1)
		want := a.Keep(s1) && b.Keep(s1)
		s2 := sample.New(txt)
		fused.ComputeStats(s2)
		if got := fused.Keep(s2); got != want {
			t.Fatalf("verdict mismatch on %q: fused=%v sequential=%v", txt, got, want)
		}
	}
}

func TestFusedFilterMemberAttribution(t *testing.T) {
	a := mustBuildOp(t, "word_num_filter", ops.Params{"min_num": 5}).(ops.Filter)
	b := mustBuildOp(t, "stopwords_filter", ops.Params{"min_ratio": 0.2}).(ops.Filter)
	fused := NewFusedFilter([]ops.Filter{a, b})
	texts := []string{
		"the cat and the dog sat on the mat with a hat", // passes both
		"short", // fails word_num: never reaches stopwords
		"alpha beta gamma delta epsilon zeta eta theta", // passes word_num, fails stopwords
	}
	for _, txt := range texts {
		s := sample.New(txt)
		if err := fused.ComputeStats(s); err != nil {
			t.Fatal(err)
		}
		fused.Keep(s)
	}
	stats := fused.TakeMemberStats()
	if len(stats) != 2 {
		t.Fatalf("member stats = %d entries", len(stats))
	}
	// Every sample's stats are computed by every member.
	if stats[0].Samples != 3 || stats[1].Samples != 3 {
		t.Fatalf("stat sample counts = %d/%d, want 3/3", stats[0].Samples, stats[1].Samples)
	}
	// Keep chain: word_num sees all 3, passes 2; stopwords sees 2, passes 1.
	if stats[0].In != 3 || stats[0].Out != 2 {
		t.Fatalf("word_num in/out = %d/%d, want 3/2", stats[0].In, stats[0].Out)
	}
	if stats[1].In != 2 || stats[1].Out != 1 {
		t.Fatalf("stopwords in/out = %d/%d, want 2/1", stats[1].In, stats[1].Out)
	}
	// Take drains: a second call starts from zero.
	again := fused.TakeMemberStats()
	if again[0].In != 0 || again[0].Samples != 0 {
		t.Fatalf("TakeMemberStats did not reset: %+v", again[0])
	}
}

func TestNewFusedFilterPanicsOnSingle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single-member fusion must panic")
		}
	}()
	NewFusedFilter([]ops.Filter{mustBuildOp(t, "word_num_filter", nil).(ops.Filter)})
}

// TestPassSpillSplitsBudget: with a memory target set, the spill pass
// gives every spill-capable dedup node an equal slice of half the
// target; without a target no node gets one.
func TestPassSpillSplitsBudget(t *testing.T) {
	specs := []config.OpSpec{
		op("whitespace_normalization_mapper"),
		op("document_deduplicator"),
		op("document_minhash_deduplicator"),
	}

	r := testRecipe(specs...)
	r.TargetMemMB = 64
	p := mustPlan(t, r)
	var budgets []int64
	for _, n := range p.Nodes {
		if _, ok := n.Op.(ops.Spiller); ok {
			budgets = append(budgets, n.SpillBudget)
		} else if n.SpillBudget != 0 {
			t.Fatalf("non-spiller %s got budget %d", n.Op.Name(), n.SpillBudget)
		}
	}
	want := (int64(64) << 20) / 2 / 2 // half the target, split across 2 dedups
	if len(budgets) != 2 || budgets[0] != want || budgets[1] != want {
		t.Fatalf("budgets = %v, want two of %d", budgets, want)
	}
	if !strings.Contains(p.Explain(), "[spill") {
		t.Fatal("Explain does not render the spill flag")
	}

	r = testRecipe(specs...)
	r.TargetMemMB = 0
	for _, n := range mustPlan(t, r).Nodes {
		if n.SpillBudget != 0 {
			t.Fatalf("spill budget %d assigned without a memory target", n.SpillBudget)
		}
	}
}
