package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndEvents(t *testing.T) {
	tr := New(2)
	tr.Record(Event{OpName: "a", Kind: "mapper", InCount: 10, OutCount: 10})
	tr.Record(Event{OpName: "b", Kind: "filter", InCount: 10, OutCount: 7})
	events := tr.Events()
	if len(events) != 2 || events[0].OpName != "a" || events[1].OutCount != 7 {
		t.Fatalf("events = %+v", events)
	}
}

func TestCapsApplied(t *testing.T) {
	tr := New(2)
	tr.Record(Event{
		OpName: "f", Kind: "filter",
		Discards: []Discard{{Text: "1"}, {Text: "2"}, {Text: "3"}},
		Edits:    []Edit{{Before: "a", After: "b"}, {}, {}, {}},
		DupPairs: []DupPair{{}, {}, {}},
	})
	e := tr.Events()[0]
	if len(e.Discards) != 2 || len(e.Edits) != 2 || len(e.DupPairs) != 2 {
		t.Fatalf("caps not applied: %d %d %d", len(e.Discards), len(e.Edits), len(e.DupPairs))
	}
}

func TestLongTextClipped(t *testing.T) {
	tr := New(5)
	long := strings.Repeat("x", 1000)
	tr.Record(Event{OpName: "m", Kind: "mapper", Edits: []Edit{{Before: long, After: long}}})
	e := tr.Events()[0]
	if len(e.Edits[0].Before) > 220 {
		t.Fatalf("text not clipped: %d", len(e.Edits[0].Before))
	}
	if !strings.HasSuffix(e.Edits[0].Before, "…") {
		t.Fatal("clip marker missing")
	}
}

func TestSummaryFormat(t *testing.T) {
	tr := New(5)
	tr.Record(Event{OpName: "word_num_filter", Kind: "filter", InCount: 100, OutCount: 60, Duration: time.Millisecond})
	tr.Record(Event{OpName: "dedup", Kind: "deduplicator", InCount: 60, OutCount: 50, CacheHit: true})
	s := tr.Summary()
	if !strings.Contains(s, "word_num_filter") || !strings.Contains(s, "40.0%") {
		t.Fatalf("summary = %q", s)
	}
	if !strings.Contains(s, "[cache]") {
		t.Fatalf("cache marker missing: %q", s)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{OpName: "x"}) // must not panic
	if tr.Events() != nil {
		t.Fatal("nil tracer events should be nil")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(5)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Record(Event{OpName: "op", Kind: "mapper", InCount: 2, OutCount: 1})
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 merged aggregate", len(events))
	}
	e := events[0]
	if e.Records != 50 || e.InCount != 100 || e.OutCount != 50 {
		t.Fatalf("aggregate = %+v", e)
	}
}

func TestBoundedGrowth(t *testing.T) {
	// One event per shard per op used to accumulate without bound; the
	// merge-at-record-time fix caps retained state at maxPerOp examples
	// per op no matter how many records flow in.
	tr := New(3)
	for i := 0; i < 1000; i++ {
		tr.Record(Event{
			OpName: "f", Kind: "filter", InCount: 10, OutCount: 9,
			Discards: []Discard{{Text: "x"}},
		})
	}
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	if len(e.Discards) != 3 {
		t.Fatalf("retained discards = %d, want cap 3", len(e.Discards))
	}
	if e.Records != 1000 || e.InCount != 10000 {
		t.Fatalf("aggregate = %+v", e)
	}
}

func TestPartialCacheMarker(t *testing.T) {
	tr := New(5)
	tr.Record(Event{OpName: "op", Kind: "filter", InCount: 10, OutCount: 8, CacheHit: true})
	tr.Record(Event{OpName: "op", Kind: "filter", InCount: 10, OutCount: 8})
	e := tr.Events()[0]
	if e.CacheHit || e.CacheHits != 1 {
		t.Fatalf("cache state = %+v", e)
	}
	if !strings.Contains(tr.Summary(), "[cache partial]") {
		t.Fatalf("summary = %q", tr.Summary())
	}
}

func TestSink(t *testing.T) {
	tr := New(2)
	var got []Event
	tr.SetSink(func(e Event) { got = append(got, e) })
	long := strings.Repeat("y", 500)
	tr.Record(Event{OpName: "m", Kind: "mapper", Edits: []Edit{{Before: long, After: "z"}}})
	tr.Record(Event{OpName: "m", Kind: "mapper"})
	if len(got) != 2 {
		t.Fatalf("sink calls = %d", len(got))
	}
	if len(got[0].Edits) != 1 || len(got[0].Edits[0].Before) > 220 {
		t.Fatalf("sink payload not clipped: %+v", got[0])
	}
}
