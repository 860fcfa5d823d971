// Package plan is the unified cost-based planner shared by the batch
// executor (internal/core) and the streaming engine (internal/stream):
// one logical→physical plan layer that owns execution order, fusion
// groups, and streaming capability placement, so neither backend
// re-derives them.
//
// A logical plan is built from a recipe's operator list, then run
// through an ordered pass pipeline:
//
//  1. validate    — structural checks, operator instantiation
//  2. predict     — attach per-op cost and selectivity, measured from
//     the persisted profile sidecar (dist.LoadProfiles) when history
//     exists, falling back to the static CostHint otherwise
//  3. reorder     — commutative filter groups are ordered cheapest
//     first by predicted cost × selectivity (Fig. 6 reordering, but
//     from live measurements instead of fixed ranks)
//  4. fuse        — context-sharing filters cluster into FusedFilter
//     ops (Fig. 6 fusion), and the group is re-ranked
//  5. placement   — each op is classified shard-local / shared-index /
//     barrier and assigned its streaming phase
//  6. cache-boundary — the leading shard-cacheable run is annotated
//
// The result is a physical plan whose nodes carry their prediction and
// per-pass provenance; djprocess -explain renders it. After a run, both
// backends fold their measured per-op costs back into the sidecar
// (core.PersistProfiles), so the next run plans from real measurements.
package plan

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/ops"
)

// PhysicalOp is one node of the physical plan: the operator to execute
// plus everything the planner decided or predicted about it.
type PhysicalOp struct {
	// Op is the executable operator (possibly a *FusedFilter).
	Op ops.OP
	// Key is the operator identity (name + params hash) that keys both
	// the op cache and the profile sidecar. Fused nodes have no single
	// key; theirs is empty and MemberKeys carries the members'.
	Key string
	// MemberKeys aligns with Op.(*FusedFilter).Members() for fused nodes.
	MemberKeys []string
	// Capability is the streaming execution class (placement pass).
	Capability Capability
	// Phase is the streaming phase index: barrier ops close their phase.
	Phase int
	// Cost is the predicted cost of one input sample: nanoseconds when
	// Measured, static hint units otherwise.
	Cost float64
	// Selectivity is the predicted survival ratio (1 when unknown).
	Selectivity float64
	// Measured reports whether the prediction came from the persisted
	// profile sidecar rather than static hints.
	Measured bool
	// Runs counts the profile runs backing a measured prediction.
	Runs int
	// StreamCacheable marks nodes in the leading shard-local run, the
	// only segment whose per-shard results are pure functions of shard
	// content and therefore shard-cacheable.
	StreamCacheable bool
	// SpillBudget is the node's slice of the run's memory target in
	// bytes (spill pass). Spill-capable ops switch to their disk-backed
	// index when the estimated in-memory footprint exceeds it; 0 keeps
	// the op fully in memory.
	SpillBudget int64
	// Provenance lists what each pass did to this node, in pass order.
	Provenance []string
}

// CostString renders the predicted cost with its unit.
func (n *PhysicalOp) CostString() string {
	if n.Measured {
		return time.Duration(n.Cost).Round(10*time.Nanosecond).String() + "/sample"
	}
	return fmt.Sprintf("hint %.0f", n.Cost)
}

// PassRecord summarizes one pass of the pipeline.
type PassRecord struct {
	Name   string
	Detail string
	// Dur is the pass's wall time, journaled for plan-time attribution.
	Dur time.Duration
}

// Plan is the physical plan both backends execute.
type Plan struct {
	// Nodes is the physical operator sequence, in execution order.
	Nodes []PhysicalOp
	// Passes records the pipeline that produced the plan, in order.
	Passes []PassRecord
	// Optimized reports whether reordering/fusion ran (recipe op_fusion).
	Optimized bool
	// ProfilePath is the sidecar consulted (and to persist back to);
	// empty when profile use is disabled or the recipe has no work dir.
	ProfilePath string
	// MeasuredOps counts nodes planned from measured profiles.
	MeasuredOps int

	built []ops.OP // the unfused recipe-order operators (runner identity)
}

// Ops returns the physical operator list in execution order.
func (p *Plan) Ops() []ops.OP {
	out := make([]ops.OP, len(p.Nodes))
	for i := range p.Nodes {
		out[i] = p.Nodes[i].Op
	}
	return out
}

// Built returns the instantiated operators in original recipe order
// (before fusion/reordering) — the list the shared OpRunner derives
// per-op cache identities from.
func (p *Plan) Built() []ops.OP { return p.built }

// ProfilePath locates the recipe's profile sidecar: a JSON file under
// <work_dir>/profiles named after the project. Operator entries inside
// are keyed by name + params hash, so recipes sharing a project name
// (and work dir) share measurements for identical operators — which is
// exactly what makes them comparable. Empty when the recipe has no work
// directory to persist into.
func ProfilePath(r *config.Recipe) string {
	if r.WorkDir == "" {
		return ""
	}
	name := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			return c
		}
		return '-'
	}, r.ProjectName)
	if name == "" {
		name = "recipe"
	}
	return filepath.Join(r.WorkDir, "profiles", name+".json")
}

// Build validates the recipe, loads its profile sidecar (when the
// recipe enables profiles and has a work dir), and runs the pass
// pipeline. A missing sidecar is the normal cold start; a corrupt one
// falls back to static planning and is noted in the predict pass record
// rather than failing the run.
func Build(r *config.Recipe) (*Plan, error) {
	profiles := dist.NewProfileSet()
	path := ""
	var loadErr error
	if r.UseProfiles {
		path = ProfilePath(r)
		if path != "" {
			profiles, loadErr = dist.LoadProfiles(path)
		}
	}
	p, err := build(r, profiles, loadErr)
	if err != nil {
		return nil, err
	}
	p.ProfilePath = path
	return p, nil
}

// BuildWithProfiles plans from an explicit profile set, bypassing the
// sidecar — the hook tests and experiments use to pin planning inputs.
func BuildWithProfiles(r *config.Recipe, profiles *dist.ProfileSet) (*Plan, error) {
	if profiles == nil {
		profiles = dist.NewProfileSet()
	}
	return build(r, profiles, nil)
}

// opKey is the operator identity shared by the op cache, the profile
// sidecar, and the runner: registered name + params hash.
func opKey(spec config.OpSpec) string {
	return cache.Key("", spec.Name, spec.Params)
}

// Describe renders a one-line-per-op view of the plan, used by the CLI
// -plan flag and log output.
func (p *Plan) Describe() string {
	var b strings.Builder
	for i := range p.Nodes {
		n := &p.Nodes[i]
		fmt.Fprintf(&b, "%2d. [%-12s] %-46s cost %s, sel %.2f\n",
			i+1, n.Capability, n.Op.Name(), n.CostString(), n.Selectivity)
	}
	return b.String()
}

// Explain renders the full optimized plan: per-op prediction, capability
// class, per-pass provenance, and the pass pipeline summary — the
// djprocess -explain view.
func (p *Plan) Explain() string {
	var b strings.Builder
	mode := "static order (op_fusion=false)"
	if p.Optimized {
		mode = "optimized"
	}
	fmt.Fprintf(&b, "plan: %d ops, %s; %d planned from measured profiles", len(p.Nodes), mode, p.MeasuredOps)
	if p.ProfilePath != "" {
		fmt.Fprintf(&b, " (sidecar %s)", p.ProfilePath)
	}
	b.WriteString("\n")
	for i := range p.Nodes {
		n := &p.Nodes[i]
		flags := ""
		if n.StreamCacheable {
			flags = " [shard-cacheable]"
		}
		if n.SpillBudget > 0 {
			flags += fmt.Sprintf(" [spill %.1fMiB]", float64(n.SpillBudget)/(1<<20))
		}
		fmt.Fprintf(&b, "%2d. %-46s %-13s phase %d  cost %s  sel %.2f%s\n",
			i+1, n.Op.Name(), "["+n.Capability.String()+"]", n.Phase, n.CostString(), n.Selectivity, flags)
		for _, note := range n.Provenance {
			fmt.Fprintf(&b, "      - %s\n", note)
		}
	}
	b.WriteString("passes:\n")
	for _, pr := range p.Passes {
		fmt.Fprintf(&b, "  %-14s %s\n", pr.Name+":", pr.Detail)
	}
	return b.String()
}
