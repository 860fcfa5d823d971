package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a controllable clock starting at a fixed instant.
func fakeClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestRunLifecycleJournals(t *testing.T) {
	var buf bytes.Buffer
	clock, advance := fakeClock(time.Unix(100, 0))
	r, err := NewRun(RunOptions{JournalWriter: &buf, RunID: "life", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterOp(0, "m", 0, 1)
	r.Begin("batch", "recipe.yaml", "in.jsonl", 42)
	advance(2 * time.Second)
	r.Emit(Event{Type: EvOpComplete, Name: "m", In: 42, Out: 40, DurNS: 1e9})
	r.End("ok", 42, 40, nil, func(e *Event) { e.Note = "(note)" })
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Schema != SchemaVersion || events[0].In != 42 || events[0].Span != r.RunSpan() {
		t.Errorf("run_start wrong: %+v", events[0])
	}
	end := events[2]
	if end.Status != "ok" || end.DurNS != int64(2*time.Second) || end.Note != "(note)" || end.PlanOps != 1 {
		t.Errorf("run_end wrong: %+v", end)
	}
	for _, e := range events {
		if e.RunID != "life" || e.TS == 0 {
			t.Errorf("event missing stamps: %+v", e)
		}
	}
}

func TestRunEndError(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRun(RunOptions{JournalWriter: &buf, RunID: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("stream", "", "x", 0)
	r.End("error", 0, 0, errors.New("op 2 exploded"), nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	end := events[len(events)-1]
	if end.Status != "error" || end.Error != "op 2 exploded" {
		t.Errorf("run_end error fields wrong: %+v", end)
	}
	var out strings.Builder
	Console(&out)(end)
	if !strings.Contains(out.String(), "run failed after") {
		t.Errorf("console failure line wrong: %s", out.String())
	}
}

func TestOpMetricsAccounting(t *testing.T) {
	r, err := NewRun(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := r.RegisterOp(0, "f", 1000, 0.5)
	m.Observe(100, 50, 2048, 10*time.Millisecond)
	m.Observe(100, 60, 2048, 10*time.Millisecond)
	m.CacheHit(50, 25)
	if m.In() != 250 || m.Out() != 135 {
		t.Errorf("in/out = %d/%d, want 250/135", m.In(), m.Out())
	}
	if m.Wall() != 20*time.Millisecond {
		t.Errorf("wall = %s, want 20ms (cache hits charge no wall)", m.Wall())
	}
	// Registering the same plan index again returns the same bundle.
	if r.RegisterOp(0, "f", 0, 0) != m {
		t.Error("RegisterOp did not intern by plan index")
	}
	if r.Op(0) != m || r.Op(9) != nil {
		t.Error("Op lookup wrong")
	}

	var b strings.Builder
	if err := r.Reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dj_op_samples_in_total{op="f"} 250`,
		`dj_op_samples_out_total{op="f"} 135`,
		`dj_op_cache_hits_total{op="f"} 1`,
		`dj_op_cache_misses_total{op="f"} 2`,
		`dj_op_wall_seconds_total{op="f"} 0.02`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotETA pins the progress estimator: expected per-op input is
// inputTotal damped by upstream selectivity, unit cost is measured
// wall/in when available and the planner prediction otherwise.
func TestSnapshotETA(t *testing.T) {
	clock, advance := fakeClock(time.Unix(1000, 0))
	r, err := NewRun(RunOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	op0 := r.RegisterOp(0, "half_filter", 1000, 0.5)
	r.RegisterOp(1, "tail_mapper", 1000, 1)
	r.Begin("stream", "", "in", 1000)
	r.AddInput(500)

	// Half the input has passed op0 at 1000 ns/sample; op1 has not run.
	// Work: op0 total 1000×1000 ns, done 500×1000; op1 total 500×1000
	// (selectivity-damped), done 0 → fraction 1/3.
	op0.Observe(500, 250, 0, 500*time.Microsecond)
	advance(3 * time.Second)

	p := r.Snapshot()
	if p.SamplesIn != 500 || p.InputTotal != 1000 {
		t.Errorf("totals wrong: %+v", p)
	}
	if len(p.Ops) != 2 || p.Ops[0].Selectivity != 0.5 {
		t.Fatalf("ops wrong: %+v", p.Ops)
	}
	if want := 1.0 / 3.0; p.Fraction < want-1e-9 || p.Fraction > want+1e-9 {
		t.Errorf("fraction = %v, want 1/3", p.Fraction)
	}
	// eta = elapsed × (1-f)/f = 3s × 2 = 6s.
	if want := int64(6 * time.Second); p.ETANS != want {
		t.Errorf("eta = %d, want %d", p.ETANS, want)
	}
	if p.Ops[0].RateEWMA == 0 {
		t.Error("EWMA rate not tracked")
	}
}

func TestSnapshotControls(t *testing.T) {
	r, err := NewRun(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetControls(4, 512, 8, 64<<20)
	r.ObserveBackpressure(5 * time.Millisecond)
	p := r.Snapshot()
	want := Controls{
		Workers: 4, ShardSize: 512, MaxInFlight: 8, TargetMemBytes: 64 << 20,
		BackpressureWaits: 1, BackpressureWaitNS: int64(5 * time.Millisecond),
	}
	if p.Controls == nil || *p.Controls != want {
		t.Fatalf("controls = %+v, want %+v", p.Controls, want)
	}
	if got := r.Reg.Gauge("dj_target_mem_bytes", "").Value(); got != 64<<20 {
		t.Errorf("dj_target_mem_bytes = %d, want %d", got, 64<<20)
	}
}

func TestConsoleRendering(t *testing.T) {
	var out strings.Builder
	r, err := NewRun(RunOptions{RunID: "con"})
	if err != nil {
		t.Fatal(err)
	}
	r.OnEvent(Console(&out))
	r.Begin("stream", "my-recipe", "in.jsonl", 10)
	r.Emit(Event{Type: EvPhase, Span: 2, Name: "to barrier dedup", Phase: 1})
	r.Emit(Event{Type: EvControllerReplan, Workers: 4, ShardSize: 256, MaxInFlight: 8, Why: "cpu"})
	r.Emit(Event{Type: EvOpComplete, Name: "quiet", In: 1, Out: 1})
	r.Emit(Event{Type: EvExport, Input: "out.jsonl"})
	r.End("ok", 10, 8, nil, func(e *Event) { e.Shards = 2; e.PlanOps = 3 })
	got := out.String()
	for _, want := range []string{
		"run con [stream]: my-recipe <- in.jsonl (10 samples)",
		"phase 1: to barrier dedup",
		"controller: workers=4 shard=256 inflight=8 (cpu)",
		"exported to out.jsonl",
		"processed: 10 -> 8 samples in",
		"3 planned ops, 2 shards",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("console missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "quiet") {
		t.Error("op_complete must not render line-by-line")
	}
}

func TestFormatOpTable(t *testing.T) {
	rows := []OpRow{
		{Name: "fused_filter", In: 100, Out: 80, Dur: 3 * time.Millisecond, Members: []MemberRow{
			{Name: "f1", In: 60, Out: 55, Dur: time.Millisecond},
			{Name: "f2", In: 55, Out: 50, Dur: time.Millisecond},
		}},
		{Name: "cached_mapper", In: 80, Out: 80, CacheHit: true},
	}
	got := FormatOpTable(rows)
	for _, want := range []string{
		"fused_filter", "· f1", "· f2", "[cache]",
		"members below cover the 60 executed (non-cached) samples",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
	// Members that cover the full input need no mismatch note.
	rows[0].Members[0].In = 100
	if strings.Contains(FormatOpTable(rows[:1]), "members below cover") {
		t.Error("mismatch note printed for fully-covered members")
	}
}
