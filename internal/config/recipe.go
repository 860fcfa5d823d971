package config

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/format"
	"repro/internal/ops"
)

// OpSpec names one operator and its parameters within a recipe's process
// list.
type OpSpec struct {
	Name   string
	Params ops.Params
}

// SourceSpec is one weighted input of a multi-source recipe — an alias of
// the format layer's type so recipes and the mixer share one definition.
type SourceSpec = format.WeightedSpec

// Recipe is the all-in-one configuration for one processing run,
// mirroring the paper's config files: environment parameters, the ordered
// OP list, and cache/checkpoint policy.
type Recipe struct {
	ProjectName string
	// DatasetPath is the single-input dataset spec (file, dir, glob,
	// "hub:", "mix:"); ignored when Sources is non-empty.
	DatasetPath string
	// Sources is the weighted multi-source input list (recipe key
	// "sources:"). When non-empty it overrides DatasetPath; the inputs
	// are interleaved deterministically by weight with per-sample
	// provenance tags (see format.MixSource and DatasetSpec).
	Sources    []SourceSpec
	ExportPath string
	// NP is the number of parallel workers (0 = GOMAXPROCS).
	NP int
	// TextKey is the default text field OPs process.
	TextKey string
	// UseCache enables the per-OP dataset cache.
	UseCache bool
	// UseCheckpoint enables crash-recovery checkpoints.
	UseCheckpoint bool
	// OpFusion enables context-sharing fusion and reordering (Sec. 6).
	OpFusion bool
	// UseProfiles lets the planner read and persist the per-recipe
	// profile sidecar (<work_dir>/profiles/<project>.json): measured
	// per-op cost and selectivity from previous runs steer the
	// reordering of commutative filter groups. Off, every run plans
	// from static cost hints and nothing is persisted.
	UseProfiles bool
	// Adaptive switched on the streaming engine's removed runtime
	// controller. No recipe key, env var or flag sets it, and
	// stream.New rejects it. It remains only so the benchmark harness,
	// which still reads it, compiles; a later benchmark-scoped change
	// deletes it.
	Adaptive bool
	// MaxWorkers capped the removed controller's worker pool. Like
	// Adaptive, nothing sets it and a later benchmark-scoped change
	// deletes it.
	MaxWorkers int
	// TargetMemMB caps the deduplicators' signature/shingle indexes on
	// both backends (0 = unbounded): the planner's spill pass hands each
	// dedup op a slice of this target and the op's index structures
	// spill to disk when they outgrow it.
	TargetMemMB int
	// EnableTrace records per-OP lineage for the tracer.
	EnableTrace bool
	// Listen, when non-empty, serves the live ops endpoint on this
	// address during the run: /metrics (Prometheus text), /progress
	// (JSON snapshot) and /debug/pprof/* (djprocess -listen).
	Listen string
	// Journal enables the structured run journal: an append-only JSONL
	// event stream under <work_dir>/journal/<run_id>.jsonl. On by
	// default; disable with journal: false or DJ_JOURNAL=false.
	Journal bool
	// WorkDir holds caches, checkpoints and trace output.
	WorkDir string
	// Process is the ordered operator list.
	Process []OpSpec
}

// Default returns a recipe with the documented defaults.
func Default() *Recipe {
	return &Recipe{
		ProjectName: "data-juicer",
		TextKey:     "text",
		UseCache:    true,
		OpFusion:    true,
		UseProfiles: true,
		EnableTrace: false,
		Journal:     true,
		WorkDir:     ".data-juicer",
	}
}

// FromMap builds a recipe from a parsed YAML/JSON document, layered over
// the defaults. A bool key given anything but a bool, or an int key given
// anything but an integer, is an error naming the key and the value: a
// scalar like "yes" or 2.5 is never silently coerced.
func FromMap(m map[string]any) (*Recipe, error) {
	r := Default()
	for key, v := range m {
		var err error
		switch key {
		case "project_name":
			r.ProjectName = asString(v)
		case "dataset_path":
			r.DatasetPath = asString(v)
		case "export_path":
			r.ExportPath = asString(v)
		case "np":
			r.NP, err = asInt(key, v)
		case "text_key":
			r.TextKey = asString(v)
		case "use_cache":
			r.UseCache, err = asBool(key, v)
		case "use_checkpoint":
			r.UseCheckpoint, err = asBool(key, v)
		case "op_fusion":
			r.OpFusion, err = asBool(key, v)
		case "use_profiles":
			r.UseProfiles, err = asBool(key, v)
		case "target_mem_mb":
			r.TargetMemMB, err = asInt(key, v)
		case "trace":
			r.EnableTrace, err = asBool(key, v)
		case "listen":
			r.Listen = asString(v)
		case "journal":
			r.Journal, err = asBool(key, v)
		case "work_dir":
			r.WorkDir = asString(v)
		case "sources":
			r.Sources, err = parseSources(v)
		case "process":
			r.Process, err = parseProcess(v)
		default:
			return nil, fmt.Errorf("config: unknown recipe key %q (known keys: %v)", key, KnownRecipeKeys())
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recipeKeys lists every key FromMap accepts, in documentation order.
// docs/recipes.md must reference each of them (enforced by the docs-lint
// test) and FromMap must accept each (enforced by TestKnownRecipeKeys).
var recipeKeys = []string{
	"project_name", "dataset_path", "sources", "export_path", "np",
	"text_key", "use_cache", "use_checkpoint",
	"op_fusion", "use_profiles", "target_mem_mb",
	"trace", "listen", "journal", "work_dir", "process",
}

// KnownRecipeKeys returns every recognized recipe key.
func KnownRecipeKeys() []string {
	return append([]string(nil), recipeKeys...)
}

// parseSources parses the sources: list: entries are either plain spec
// strings (weight 1) or mappings with spec (or path), weight, and
// max_samples keys.
func parseSources(v any) ([]SourceSpec, error) {
	list, ok := v.([]any)
	if !ok {
		if v == nil {
			return nil, nil
		}
		return nil, fmt.Errorf("config: sources must be a list, got %T", v)
	}
	specs := make([]SourceSpec, 0, len(list))
	for i, item := range list {
		switch e := item.(type) {
		case string:
			specs = append(specs, SourceSpec{Spec: e, Weight: 1})
		case map[string]any:
			ws := SourceSpec{Weight: 1}
			for k, ev := range e {
				switch k {
				case "spec", "path":
					if ws.Spec != "" {
						return nil, fmt.Errorf("config: sources[%d]: both spec and path given", i)
					}
					ws.Spec = asString(ev)
				case "weight":
					f, ok := asFloatStrict(ev)
					if !ok {
						return nil, fmt.Errorf("config: sources[%d]: weight must be a number, got %T (%v)", i, ev, ev)
					}
					if f == 0 {
						// 0 would silently coerce to the default 1;
						// excluding a source is done by omitting it.
						return nil, fmt.Errorf("config: sources[%d]: weight 0 — omit the source instead", i)
					}
					ws.Weight = f
				case "max_samples":
					f, ok := asFloatStrict(ev)
					if !ok || f != float64(int(f)) {
						return nil, fmt.Errorf("config: sources[%d]: max_samples must be an integer, got %T (%v)", i, ev, ev)
					}
					ws.MaxSamples = int(f)
				default:
					return nil, fmt.Errorf("config: sources[%d]: unknown key %q (want spec/path, weight, max_samples)", i, k)
				}
			}
			if ws.Spec == "" {
				return nil, fmt.Errorf("config: sources[%d]: missing spec", i)
			}
			specs = append(specs, ws)
		default:
			return nil, fmt.Errorf("config: sources[%d]: unsupported entry type %T", i, item)
		}
	}
	return specs, nil
}

// DatasetSpec returns the single input spec of the recipe: DatasetPath
// when Sources is empty, otherwise the canonical "mix:" encoding of the
// weighted source list. Both execution backends open this one spec
// through the format layer, so mixed multi-format inputs feed the batch
// executor and the streaming engine identically.
func (r *Recipe) DatasetSpec() string {
	if len(r.Sources) == 0 {
		return r.DatasetPath
	}
	return format.EncodeMix(r.Sources)
}

func parseProcess(v any) ([]OpSpec, error) {
	list, ok := v.([]any)
	if !ok {
		if v == nil {
			return nil, nil
		}
		return nil, fmt.Errorf("config: process must be a list, got %T", v)
	}
	specs := make([]OpSpec, 0, len(list))
	for i, item := range list {
		switch e := item.(type) {
		case string:
			specs = append(specs, OpSpec{Name: e})
		case map[string]any:
			if len(e) != 1 {
				return nil, fmt.Errorf("config: process[%d]: each entry must hold exactly one operator, got %d keys", i, len(e))
			}
			for name, params := range e {
				p := ops.Params{}
				switch pm := params.(type) {
				case nil:
				case map[string]any:
					for k, pv := range pm {
						p[k] = pv
					}
				default:
					return nil, fmt.Errorf("config: process[%d] %s: params must be a mapping, got %T", i, name, params)
				}
				specs = append(specs, OpSpec{Name: name, Params: p})
			}
		default:
			return nil, fmt.Errorf("config: process[%d]: unsupported entry type %T", i, item)
		}
	}
	return specs, nil
}

// Load reads a recipe from a .yaml or .json file, then applies DJ_*
// environment overrides.
func Load(path string) (*Recipe, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("config: %s: %w", path, err)
		}
	default:
		m, err = ParseYAML(raw)
		if err != nil {
			return nil, fmt.Errorf("config: %s: %w", path, err)
		}
	}
	r, err := FromMap(m)
	if err != nil {
		return nil, err
	}
	if err := r.ApplyEnv(os.Getenv); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseRecipe parses YAML source directly (for embedded built-in recipes).
func ParseRecipe(src string) (*Recipe, error) {
	m, err := ParseYAML([]byte(src))
	if err != nil {
		return nil, err
	}
	return FromMap(m)
}

// ApplyEnv overlays scalar settings from environment variables using the
// DJ_ prefix (e.g. DJ_NP=8, DJ_USE_CACHE=false, DJ_EXPORT_PATH=out.jsonl).
// Bool variables take true/false/1/0 and int variables an integer; any
// other value is an error naming the variable and the value, never a
// silent false or an ignored override. getenv is injected for
// testability.
func (r *Recipe) ApplyEnv(getenv func(string) string) error {
	for _, b := range []struct {
		name string
		dst  *bool
	}{
		{"DJ_USE_CACHE", &r.UseCache},
		{"DJ_USE_CHECKPOINT", &r.UseCheckpoint},
		{"DJ_OP_FUSION", &r.OpFusion},
		{"DJ_USE_PROFILES", &r.UseProfiles},
		{"DJ_JOURNAL", &r.Journal},
	} {
		switch v := getenv(b.name); v {
		case "":
		case "true", "1":
			*b.dst = true
		case "false", "0":
			*b.dst = false
		default:
			return fmt.Errorf("config: %s must be true, false, 1 or 0, got %q", b.name, v)
		}
	}
	for _, n := range []struct {
		name string
		dst  *int
	}{
		{"DJ_NP", &r.NP},
		{"DJ_TARGET_MEM_MB", &r.TargetMemMB},
	} {
		if v := getenv(n.name); v != "" {
			x, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("config: %s must be an integer, got %q", n.name, v)
			}
			*n.dst = x
		}
	}
	for _, str := range []struct {
		name string
		dst  *string
	}{
		{"DJ_EXPORT_PATH", &r.ExportPath},
		{"DJ_LISTEN", &r.Listen},
		{"DJ_WORK_DIR", &r.WorkDir},
	} {
		if v := getenv(str.name); v != "" {
			*str.dst = v
		}
	}
	if v := getenv("DJ_DATASET_PATH"); v != "" {
		// An explicit input override replaces the recipe's whole input,
		// including a sources: list (a "mix:" value can express one).
		r.DatasetPath = v
		r.Sources = nil
	}
	return nil
}

// Validate checks the recipe for structural problems: unknown operators,
// empty process lists, malformed source entries and negative counts are
// reported before any data is touched.
func (r *Recipe) Validate() error {
	if len(r.Process) == 0 {
		return fmt.Errorf("config: recipe has an empty process list")
	}
	for _, n := range []struct {
		key string
		v   int
	}{{"np", r.NP}, {"target_mem_mb", r.TargetMemMB}} {
		if n.v < 0 {
			return fmt.Errorf("config: %s must be >= 0, got %d", n.key, n.v)
		}
	}
	for i, ws := range r.Sources {
		// Sources travel to both backends as an encoded "mix:" string;
		// CheckEncodable enforces the weight/max_samples invariants and
		// rejects specs the grammar would misparse before any data loads.
		if err := format.CheckEncodable(ws); err != nil {
			return fmt.Errorf("config: sources[%d]: %w", i, err)
		}
	}
	for i, spec := range r.Process {
		if _, ok := ops.InfoFor(spec.Name); !ok {
			return fmt.Errorf("config: process[%d]: unknown operator %q", i, spec.Name)
		}
	}
	return nil
}

// BuildOps instantiates the recipe's operator list. The recipe-level
// TextKey is injected into every OP that does not set its own.
func (r *Recipe) BuildOps() ([]ops.OP, error) {
	built := make([]ops.OP, 0, len(r.Process))
	for i, spec := range r.Process {
		p := ops.Params{}
		for k, v := range spec.Params {
			p[k] = v
		}
		if _, ok := p["text_key"]; !ok && r.TextKey != "" && r.TextKey != "text" {
			p["text_key"] = r.TextKey
		}
		op, err := ops.Build(spec.Name, p)
		if err != nil {
			return nil, fmt.Errorf("config: process[%d]: %w", i, err)
		}
		built = append(built, op)
	}
	return built, nil
}

// Remove deletes the named operators from the process list ("subtraction"
// customization, Sec. 5.1) and reports how many entries were removed.
func (r *Recipe) Remove(names ...string) int {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	kept := r.Process[:0]
	removed := 0
	for _, s := range r.Process {
		if drop[s.Name] {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	r.Process = kept
	return removed
}

// Add appends operators to the process list ("addition" customization).
func (r *Recipe) Add(specs ...OpSpec) { r.Process = append(r.Process, specs...) }

// SetParam overrides one parameter of the first operator with the given
// name, returning false if the operator is absent.
func (r *Recipe) SetParam(opName, key string, value any) bool {
	for i := range r.Process {
		if r.Process[i].Name == opName {
			if r.Process[i].Params == nil {
				r.Process[i].Params = ops.Params{}
			}
			r.Process[i].Params[key] = value
			return true
		}
	}
	return false
}

func asString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprintf("%v", v)
}

// asInt reads an int recipe key: an integer, or an integral JSON number.
// An empty value (nil) reads as 0.
func asInt(key string, v any) (int, error) {
	switch x := v.(type) {
	case nil:
		return 0, nil
	case int:
		return x, nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return int(x), nil
		}
	}
	return 0, fmt.Errorf("config: %s must be an integer, got %T (%v)", key, v, v)
}

// asBool reads a bool recipe key: true/false only. An empty value (nil)
// reads as false.
func asBool(key string, v any) (bool, error) {
	switch x := v.(type) {
	case nil:
		return false, nil
	case bool:
		return x, nil
	}
	return false, fmt.Errorf("config: %s must be true or false, got %T (%v)", key, v, v)
}

// asFloatStrict converts parser-produced numeric types only; anything
// else (strings, bools, nil) reports !ok so callers can error loudly
// instead of silently defaulting.
func asFloatStrict(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}
