// Package ops defines the standardized operator pool contract of Sec. 3:
// the Mapper / Filter / Deduplicator interfaces (Listing 1 in the paper),
// a global registry OP implementations self-register into, typed
// configuration parameters, and the shared-context helpers that back the
// context manager used by OP fusion (Sec. 6).
package ops

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sample"
)

// Category classifies an operator.
type Category string

// Operator categories, matching Table 1.
const (
	CategoryMapper       Category = "mapper"
	CategoryFilter       Category = "filter"
	CategoryDeduplicator Category = "deduplicator"
)

// OP is the common surface of every operator.
type OP interface {
	// Name returns the registered snake_case operator name.
	Name() string
}

// Mapper edits a sample's text in place (single-sample processing).
type Mapper interface {
	OP
	// Process transforms the sample in place.
	Process(s *sample.Sample) error
}

// Filter conditionally removes samples. Its two phases are decoupled as in
// Listing 1: ComputeStats writes per-sample statistics into sample.Stats,
// and Keep reads only those statistics to return the boolean verdict.
// The decoupling lets the analyzer consume statistics for the entire
// dataset and lets the executor fuse stat computation across filters.
type Filter interface {
	OP
	// StatKeys lists the stats this filter writes (e.g. "word_count").
	StatKeys() []string
	// ComputeStats computes and records the filter's statistics.
	ComputeStats(s *sample.Sample) error
	// Keep reports whether the sample passes, reading only sample.Stats.
	Keep(s *sample.Sample) bool
}

// StatsBatcher is implemented by filters that process a whole batch of
// samples per call, owning scratch attachment and context clearing for
// the batch — the executor then skips its per-sample wrapper. Fused
// filters implement it to amortize member-attribution atomics.
type StatsBatcher interface {
	// ComputeStatsBatch computes stats for every sample of the batch.
	ComputeStatsBatch(batch []*sample.Sample) error
}

// KeepBatcher is implemented by filters that judge a whole batch per
// call, filling verdict[i] for batch[i].
type KeepBatcher interface {
	KeepBatch(batch []*sample.Sample, verdict []bool)
}

// DupPair records one detected duplicate: the dropped sample index and the
// retained representative index (for the tracer).
type DupPair struct {
	Dropped, Kept int
}

// Deduplicator removes duplicated samples at dataset level.
type Deduplicator interface {
	OP
	// Dedup returns the deduplicated dataset (order preserved, first
	// occurrence kept) and the duplicate pairs removed.
	Dedup(d *dataset.Dataset, np int) (*dataset.Dataset, []DupPair, error)
}

// StreamDeduper is a Deduplicator whose duplicate verdict depends only on
// a per-sample signature: two samples are duplicates exactly when their
// signatures collide. Such an op does not force a pipeline barrier in the
// streaming engine — shards consult a shared signature index in shard
// order instead, keeping first-occurrence semantics identical to the
// batch path. Signature must be pure and safe for concurrent calls.
type StreamDeduper interface {
	Deduplicator
	// Signature returns the sample's dedup signature.
	Signature(s *sample.Sample) uint64
}

// SpillSpec tells a spill-capable OP where it may write intermediate
// runs and how much memory its indexes may hold before spilling.
type SpillSpec struct {
	// Dir is the spill directory (shared; ops create uniquely-named
	// files inside it and remove them when done).
	Dir string
	// BudgetBytes bounds the op's in-memory index footprint. Zero (or
	// less) means unbounded: the op's index structures stay in memory
	// and Dir is never touched.
	BudgetBytes int64
}

// SpillStats reports what a spill-capable OP actually did on its last
// application, for telemetry.
type SpillStats struct {
	// Spilled is true when at least one run reached disk.
	Spilled bool
	// Runs counts spill files (sorted runs / partitions) written.
	Runs int64
	// SpilledBytes is the total bytes written to spill files.
	SpilledBytes int64
}

// Spiller is implemented by Deduplicators (and other index-heavy OPs)
// that can bound their in-memory state by spilling to disk. The planner
// assigns each spill-capable node a budget slice from the run's
// -target-mem-mb; executors call ConfigureSpill before the op runs and
// read SpillStats after, to emit spill metrics and journal events.
type Spiller interface {
	// ConfigureSpill installs the spill directory and budget. Called at
	// most once, before the op executes; a zero spec keeps the op fully
	// in memory.
	ConfigureSpill(SpillSpec)
	// SpillStats reports spill activity from the most recent execution.
	SpillStats() SpillStats
}

// ContextUser is implemented by OPs that consume shared per-sample
// intermediates (segmented words, split lines, ...). The fusion pass
// groups filters by overlapping context keys.
type ContextUser interface {
	ContextKeys() []string
}

// Coster is implemented by OPs that want to advertise a relative cost for
// the reordering pass; higher values are scheduled later within a
// commutative group. OPs without the method default to cost 1.
type Coster interface {
	CostHint() float64
}

// CostOf returns the advertised cost of an OP (default 1).
func CostOf(op OP) float64 {
	if c, ok := op.(Coster); ok {
		return c.CostHint()
	}
	return 1
}

// ContextKeysOf returns the declared context keys of an OP (nil if none).
func ContextKeysOf(op OP) []string {
	if u, ok := op.(ContextUser); ok {
		return u.ContextKeys()
	}
	return nil
}

// Params carries operator configuration from a recipe. Values typically
// arrive from parsed JSON/YAML, so getters accept the loose types those
// parsers produce.
type Params map[string]any

// Float returns the float64 at key, or def.
func (p Params) Float(key string, def float64) float64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return def
}

// Int returns the int at key, or def.
func (p Params) Int(key string, def int) int {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	return def
}

// String returns the string at key, or def.
func (p Params) String(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// Bool returns the bool at key, or def.
func (p Params) Bool(key string, def bool) bool {
	if v, ok := p[key].(bool); ok {
		return v
	}
	return def
}

// Strings returns the string slice at key (accepting []any), or nil.
func (p Params) Strings(key string) []string {
	switch v := p[key].(type) {
	case []string:
		return v
	case []any:
		out := make([]string, 0, len(v))
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

// Factory builds an operator from parameters.
type Factory func(p Params) (OP, error)

// Info describes a registered operator for documentation and tooling.
type Info struct {
	Name     string
	Category Category
	Usage    string // typical usage scenario tags, e.g. "general,en"
}

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
	infos     = map[string]Info{}
)

// Register adds an operator to the global registry. It panics on duplicate
// names: registration happens in init functions, so a duplicate is a
// programming error.
func Register(name string, cat Category, usage string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("ops: duplicate registration of %q", name))
	}
	factories[name] = f
	infos[name] = Info{Name: name, Category: cat, Usage: usage}
}

// Build instantiates the named operator with params.
func Build(name string, p Params) (OP, error) {
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator %q", name)
	}
	op, err := f(p)
	if err != nil {
		return nil, fmt.Errorf("ops: build %s: %w", name, err)
	}
	return op, nil
}

// List returns Info for every registered operator, sorted by name.
func List() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(infos))
	for _, i := range infos {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered operator names.
func Names() []string {
	list := List()
	names := make([]string, len(list))
	for i, inf := range list {
		names[i] = inf.Name
	}
	return names
}

// InfoFor returns the registry info for one operator.
func InfoFor(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := infos[name]
	return i, ok
}
