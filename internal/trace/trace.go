// Package trace implements the tracer of Sec. 4.2: it records what every
// operator did to the dataset — pre/post edit differences for Mappers,
// discarded samples for Filters, duplicate pairs for Deduplicators — so
// users can visually track per-OP effects and debug recipes.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Edit records one Mapper change: the text before and after.
type Edit struct {
	Before string `json:"before"`
	After  string `json:"after"`
}

// Discard records one Filter rejection with the stats that drove it.
type Discard struct {
	Text  string             `json:"text"`
	Stats map[string]float64 `json:"stats,omitempty"`
}

// DupPair records one Deduplicator removal. KeptIdx and DroppedIdx are
// the two samples' ordinals in the op's input, on every engine. Kept is
// empty when the engine no longer has the kept sample at hand (a
// streaming run whose holder sat in an earlier shard).
type DupPair struct {
	Kept       string `json:"kept"`
	Dropped    string `json:"dropped"`
	KeptIdx    int    `json:"kept_idx"`
	DroppedIdx int    `json:"dropped_idx"`
}

// Event is the lineage record of one operator. Records for the same
// (kind, op) merge at record time — counts and durations sum, example
// payloads accumulate only up to the per-op cap — so memory stays
// bounded no matter how many shards flow through the op.
type Event struct {
	OpName   string        `json:"op_name"`
	Kind     string        `json:"kind"` // mapper | filter | deduplicator
	InCount  int           `json:"in_count"`
	OutCount int           `json:"out_count"`
	Duration time.Duration `json:"duration_ns"`
	// CacheHit reports that every merged record came from cache;
	// CacheHits counts how many did.
	CacheHit  bool `json:"cache_hit,omitempty"`
	CacheHits int  `json:"cache_hits,omitempty"`
	// Records counts how many raw records merged into this event.
	Records int `json:"records,omitempty"`

	// Capped example payloads for interactive inspection.
	Edits    []Edit    `json:"edits,omitempty"`
	Discards []Discard `json:"discards,omitempty"`
	DupPairs []DupPair `json:"dup_pairs,omitempty"`
}

// Tracer accumulates per-op lineage. The zero value is unusable;
// construct with New. All methods are safe for concurrent use.
type Tracer struct {
	mu         sync.Mutex
	events     []Event
	slot       map[string]int // kind\x00op -> index into events
	maxPerOp   int
	maxTextLen int
	sink       func(Event)
}

// New returns a tracer keeping at most maxPerOp example records per
// operator (25 if maxPerOp <= 0).
func New(maxPerOp int) *Tracer {
	if maxPerOp <= 0 {
		maxPerOp = 25
	}
	return &Tracer{maxPerOp: maxPerOp, maxTextLen: 200, slot: map[string]int{}}
}

// MaxPerOp reports the per-operator example cap.
func (t *Tracer) MaxPerOp() int { return t.maxPerOp }

// SetSink installs a callback invoked (outside the tracer lock) with
// every incoming record after payload clipping — the hook that feeds
// lineage into the run journal instead of a parallel file.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

func (t *Tracer) clip(s string) string {
	if len(s) <= t.maxTextLen {
		return s
	}
	return s[:t.maxTextLen] + "…"
}

// Record folds a completed record into the per-op aggregate, clipping
// and capping example payloads at record time so retained memory is
// O(ops × maxPerOp) regardless of shard count.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(e.Edits) > t.maxPerOp {
		e.Edits = e.Edits[:t.maxPerOp]
	}
	for i := range e.Edits {
		e.Edits[i].Before = t.clip(e.Edits[i].Before)
		e.Edits[i].After = t.clip(e.Edits[i].After)
	}
	if len(e.Discards) > t.maxPerOp {
		e.Discards = e.Discards[:t.maxPerOp]
	}
	for i := range e.Discards {
		e.Discards[i].Text = t.clip(e.Discards[i].Text)
	}
	if len(e.DupPairs) > t.maxPerOp {
		e.DupPairs = e.DupPairs[:t.maxPerOp]
	}
	for i := range e.DupPairs {
		e.DupPairs[i].Kept = t.clip(e.DupPairs[i].Kept)
		e.DupPairs[i].Dropped = t.clip(e.DupPairs[i].Dropped)
	}

	key := e.Kind + "\x00" + e.OpName
	idx, ok := t.slot[key]
	if !ok {
		agg := e
		agg.Records = 1
		if e.CacheHit {
			agg.CacheHits = 1
		}
		t.slot[key] = len(t.events)
		t.events = append(t.events, agg)
	} else {
		agg := &t.events[idx]
		agg.InCount += e.InCount
		agg.OutCount += e.OutCount
		agg.Duration += e.Duration
		agg.Records++
		if e.CacheHit {
			agg.CacheHits++
		}
		agg.CacheHit = agg.CacheHit && e.CacheHit
		if room := t.maxPerOp - len(agg.Edits); room > 0 && len(e.Edits) > 0 {
			agg.Edits = append(agg.Edits, e.Edits[:min(room, len(e.Edits))]...)
		}
		if room := t.maxPerOp - len(agg.Discards); room > 0 && len(e.Discards) > 0 {
			agg.Discards = append(agg.Discards, e.Discards[:min(room, len(e.Discards))]...)
		}
		if room := t.maxPerOp - len(agg.DupPairs); room > 0 && len(e.DupPairs) > 0 {
			agg.DupPairs = append(agg.DupPairs, e.DupPairs[:min(room, len(e.DupPairs))]...)
		}
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Events returns a copy of the per-op aggregates in first-seen order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Summary renders the per-OP pipeline effect (the Figure 4(b) view): one
// line per operator with sample counts flowing through.
func (t *Tracer) Summary() string {
	var b strings.Builder
	b.WriteString("op pipeline effect (samples in -> out)\n")
	for _, e := range t.Events() {
		removed := e.InCount - e.OutCount
		pct := 0.0
		if e.InCount > 0 {
			pct = 100 * float64(removed) / float64(e.InCount)
		}
		cached := ""
		switch {
		case e.CacheHit:
			cached = " [cache]"
		case e.CacheHits > 0:
			cached = " [cache partial]"
		}
		fmt.Fprintf(&b, "  %-44s %8d -> %-8d (-%5.1f%%) %8s%s\n",
			e.OpName, e.InCount, e.OutCount, pct, e.Duration.Round(time.Microsecond), cached)
	}
	return b.String()
}
