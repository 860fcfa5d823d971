// Package filter implements the Filter operators of the pool: conditional
// sample removal driven by per-sample statistics (Table 1, row "Filters").
// Each filter follows the decoupled contract of Listing 1 — ComputeStats
// writes into sample.Stats, Keep reads only those stats — so the analyzer
// can reuse whole-dataset statistics and the executor can fuse stat
// computation across filters.
package filter

import (
	"repro/internal/ops"
	"repro/internal/sample"
)

// base carries the plumbing shared by all filters.
type base struct {
	name    string
	textKey string
}

func newBase(name string, p ops.Params) base {
	return base{name: name, textKey: p.String("text_key", "text")}
}

func (b base) Name() string { return b.name }

func (b base) text(s *sample.Sample) string {
	t, _ := s.GetString(b.textKey)
	return t
}

// rangeKeep is the common "stat within [min, max]" verdict.
type rangeKeep struct {
	min, max float64
}

func newRange(p ops.Params, minKey string, minDef float64, maxKey string, maxDef float64) rangeKeep {
	return rangeKeep{min: p.Float(minKey, minDef), max: p.Float(maxKey, maxDef)}
}

func (r rangeKeep) within(v float64) bool { return v >= r.min && v <= r.max }
