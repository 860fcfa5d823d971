package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/ops"
)

// node is the mutable planning state of one physical op.
type node struct {
	op         ops.OP
	key        string
	memberKeys []string
	hint       float64 // static CostHint (fallback ranking)
	cost       float64 // predicted cost: ns/sample when measured, hint units otherwise
	sel        float64
	measured   bool
	runs       int
	cap        Capability
	phase      int
	cacheable  bool
	spill      int64 // spill budget bytes (0 = op stays fully in memory)
	orig       int   // original recipe index (min member index once fused)
	notes      []string
}

// builder threads the recipe and profile state through the passes.
type builder struct {
	r          *config.Recipe
	profiles   *dist.ProfileSet
	profileErr error
	built      []ops.OP
	nodes      []*node
	records    []PassRecord
}

func (b *builder) record(name, detail string) {
	b.records = append(b.records, PassRecord{Name: name, Detail: detail})
}

// timed stamps the records a pass appended with the pass's wall time.
func (b *builder) timed(pass func()) {
	t0 := time.Now()
	n0 := len(b.records)
	pass()
	d := time.Since(t0)
	for i := n0; i < len(b.records); i++ {
		b.records[i].Dur = d
	}
}

// build runs the full pass pipeline and assembles the physical plan.
func build(r *config.Recipe, profiles *dist.ProfileSet, profileErr error) (*Plan, error) {
	b := &builder{r: r, profiles: profiles, profileErr: profileErr}
	t0 := time.Now()
	if err := b.passValidate(); err != nil {
		return nil, err
	}
	for i := range b.records {
		b.records[i].Dur = time.Since(t0)
	}
	b.timed(b.passPredict)
	b.timed(b.passReorder)
	b.timed(b.passFuse)
	b.timed(b.passPlacement)
	b.timed(b.passCacheBoundary)
	b.timed(b.passSpill)

	p := &Plan{
		Passes:    b.records,
		Optimized: r.OpFusion,
		built:     b.built,
	}
	for _, n := range b.nodes {
		if n.measured {
			p.MeasuredOps++
		}
		p.Nodes = append(p.Nodes, PhysicalOp{
			Op: n.op, Key: n.key, MemberKeys: n.memberKeys,
			Capability: n.cap, Phase: n.phase,
			Cost: n.cost, Selectivity: n.sel, Measured: n.measured, Runs: n.runs,
			StreamCacheable: n.cacheable, SpillBudget: n.spill, Provenance: n.notes,
		})
	}
	return p, nil
}

// passValidate checks the recipe and instantiates its operators: the
// logical plan the later passes transform.
func (b *builder) passValidate() error {
	if err := b.r.Validate(); err != nil {
		return err
	}
	built, err := b.r.BuildOps()
	if err != nil {
		return err
	}
	b.built = built
	for i, op := range built {
		b.nodes = append(b.nodes, &node{
			op:   op,
			key:  opKey(b.r.Process[i]),
			hint: ops.CostOf(op),
			orig: i,
		})
	}
	b.record("validate", fmt.Sprintf("%d ops instantiated", len(b.nodes)))
	return nil
}

// passPredict attaches cost and selectivity to every node: measured from
// the profile sidecar when history exists, static hints otherwise.
func (b *builder) passPredict() {
	measured := 0
	for _, n := range b.nodes {
		if p, ok := b.profiles.Lookup(n.key); ok && p.Runs > 0 && p.CostNSPerSample > 0 {
			n.cost, n.sel, n.measured, n.runs = p.CostNSPerSample, p.Selectivity, true, p.Runs
			measured++
			n.notes = append(n.notes, fmt.Sprintf("predict: measured %s/sample, sel %.2f (%d runs)",
				time.Duration(p.CostNSPerSample).Round(10*time.Nanosecond), p.Selectivity, p.Runs))
			continue
		}
		n.cost, n.sel = n.hint, 1
		n.notes = append(n.notes, fmt.Sprintf("predict: static hint %.0f (no profile)", n.hint))
	}
	detail := fmt.Sprintf("%d of %d ops have measured profiles", measured, len(b.nodes))
	if b.profileErr != nil {
		detail += fmt.Sprintf("; sidecar unreadable (%v), planning statically", b.profileErr)
	}
	b.record("predict", detail)
}

// rank is the greedy ordering key of one entry in a commutative group:
// measured cost × selectivity when the whole group is measured (cheap,
// highly-dropping filters shrink the dataset before expensive work),
// the static hint otherwise — mixing nanoseconds with hint units would
// make the comparison meaningless.
func rank(n *node, groupMeasured bool) float64 {
	if groupMeasured {
		return n.cost * n.sel
	}
	return n.hint
}

// rankBucket quantizes a measured rank onto a coarse log scale (~30%
// per bucket): hysteresis for the reorder pass. EWMA noise between
// near-equal filters must not flip their order run-to-run — the op
// order keys the chain and shard caches, so every flip would discard
// them for no real gain. Ranks landing in one bucket fall back to the
// recipe-order tiebreak, which is identical on every run. Quantization
// (rather than an epsilon comparator) keeps the sort's less-than
// relation transitive.
func rankBucket(r float64) int {
	if r <= 0 {
		return math.MinInt32
	}
	return int(math.Round(math.Log(r) / math.Log(1.3)))
}

func allMeasured(seg []*node) bool {
	for _, n := range seg {
		if !n.measured {
			return false
		}
	}
	return true
}

// sortGroup orders one commutative group by rank — quantized to coarse
// buckets for measured groups so profile noise cannot churn the order —
// with the original position breaking ties, keeping the sort
// deterministic and stable across runs. Returns whether anything moved.
func sortGroup(seg []*node, groupMeasured bool) bool {
	moved := false
	sort.SliceStable(seg, func(a, c int) bool {
		ra, rc := rank(seg[a], groupMeasured), rank(seg[c], groupMeasured)
		if groupMeasured {
			ba, bc := rankBucket(ra), rankBucket(rc)
			if ba != bc {
				return ba < bc
			}
			return seg[a].orig < seg[c].orig
		}
		if ra != rc {
			return ra < rc
		}
		return seg[a].orig < seg[c].orig
	})
	for i := 1; i < len(seg); i++ {
		if seg[i].orig < seg[i-1].orig {
			moved = true
		}
	}
	return moved
}

// eachFilterGroup applies transform to every maximal run of consecutive
// Filter nodes (the commutative groups: Mappers and Deduplicators are
// barriers) and rebuilds the node list from the results.
func (b *builder) eachFilterGroup(transform func(seg []*node) []*node) {
	var out []*node
	i := 0
	for i < len(b.nodes) {
		if _, ok := b.nodes[i].op.(ops.Filter); !ok {
			out = append(out, b.nodes[i])
			i++
			continue
		}
		j := i
		for j < len(b.nodes) {
			if _, ok := b.nodes[j].op.(ops.Filter); !ok {
				break
			}
			j++
		}
		out = append(out, transform(b.nodes[i:j])...)
		i = j
	}
	b.nodes = out
}

// passReorder orders each commutative filter group cheapest-first.
func (b *builder) passReorder() {
	if !b.r.OpFusion {
		b.record("reorder", "skipped (op_fusion=false)")
		return
	}
	groups, reorderedGroups, measuredGroups := 0, 0, 0
	b.eachFilterGroup(func(seg []*node) []*node {
		if len(seg) < 2 {
			return seg
		}
		groups++
		gm := allMeasured(seg)
		basis := "static cost hints"
		if gm {
			basis = "measured cost×selectivity"
			measuredGroups++
		}
		pre := append([]*node(nil), seg...)
		if sortGroup(seg, gm) {
			reorderedGroups++
			for newPos, n := range seg {
				oldPos := -1
				for k, m := range pre {
					if m == n {
						oldPos = k
						break
					}
				}
				if oldPos != newPos {
					n.notes = append(n.notes, fmt.Sprintf("reorder: group position %d → %d (%s)",
						oldPos+1, newPos+1, basis))
				}
			}
		}
		return seg
	})
	b.record("reorder", fmt.Sprintf("%d filter groups, %d reordered (%d ranked by measured profiles)",
		groups, reorderedGroups, measuredGroups))
}

// passFuse clusters context-sharing filters of each commutative group
// into FusedFilter ops (union-find over overlapping context keys) and
// re-ranks the group: the fused op carries the sum of member costs and
// the product of member selectivities.
func (b *builder) passFuse() {
	if !b.r.OpFusion {
		b.record("fuse", "skipped (op_fusion=false)")
		return
	}
	fusedOps, fusedMembers := 0, 0
	b.eachFilterGroup(func(seg []*node) []*node {
		clusters := clusterByContext(seg)
		if clusters == nil {
			return seg
		}
		var out []*node
		for _, cl := range clusters {
			if len(cl) == 1 {
				out = append(out, cl[0])
				continue
			}
			// Canonical member order: original recipe position, whatever
			// the reorder pass did — so the fused identity (and with it
			// cache keys) is stable across runs as profiles sharpen.
			sort.Slice(cl, func(a, c int) bool { return cl[a].orig < cl[c].orig })
			members := make([]ops.Filter, len(cl))
			keys := make([]string, len(cl))
			names := make([]string, len(cl))
			fn := &node{orig: cl[0].orig, measured: allMeasured(cl), sel: 1}
			for k, m := range cl {
				members[k] = m.op.(ops.Filter)
				keys[k] = m.key
				names[k] = m.op.Name()
				fn.hint += m.hint
				if fn.measured {
					fn.cost += m.cost
					fn.sel *= m.sel
					if fn.runs == 0 || m.runs < fn.runs {
						fn.runs = m.runs
					}
				}
			}
			if !fn.measured {
				fn.cost, fn.sel = fn.hint, 1
			}
			fn.op = NewFusedFilter(members)
			fn.memberKeys = keys
			fn.notes = append(fn.notes, fmt.Sprintf("fuse: %d filters share context (%s)",
				len(cl), strings.Join(ops.ContextKeysOf(fn.op.(*FusedFilter)), ",")))
			if fn.measured {
				fn.notes = append(fn.notes, fmt.Sprintf("predict: members measured — Σcost %s/sample, sel %.2f",
					time.Duration(fn.cost).Round(10*time.Nanosecond), fn.sel))
			} else {
				fn.notes = append(fn.notes, fmt.Sprintf("predict: static member hints, Σ%.0f", fn.hint))
			}
			fusedOps++
			fusedMembers += len(cl)
			out = append(out, fn)
		}
		if len(out) > 1 {
			pre := append([]*node(nil), out...)
			if sortGroup(out, allMeasured(out)) {
				for newPos, n := range out {
					for oldPos, m := range pre {
						if m == n && oldPos != newPos {
							n.notes = append(n.notes, fmt.Sprintf("fuse: re-ranked to group position %d", newPos+1))
						}
					}
				}
			}
		}
		return out
	})
	if fusedOps == 0 {
		b.record("fuse", "no fusible context overlap")
		return
	}
	b.record("fuse", fmt.Sprintf("%d filters fused into %d ops", fusedMembers, fusedOps))
}

// clusterByContext groups a commutative segment's nodes into clusters of
// overlapping context keys. Nodes without context keys form singleton
// clusters. Returns nil when no cluster has two or more members (nothing
// to fuse). Cluster order follows the segment: each cluster appears at
// its first member's position.
func clusterByContext(seg []*node) [][]*node {
	keyOwner := map[string]int{} // context key -> cluster id
	cluster := make([]int, len(seg))
	for i := range cluster {
		cluster[i] = -1
	}
	next := 0
	memberIdx := map[int][]int{}
	for i, n := range seg {
		keys := ops.ContextKeysOf(n.op)
		if len(keys) == 0 {
			continue
		}
		id := -1
		for _, k := range keys {
			if owner, ok := keyOwner[k]; ok {
				id = owner
				break
			}
		}
		if id == -1 {
			id = next
			next++
		}
		for _, k := range keys {
			if prev, ok := keyOwner[k]; ok && prev != id {
				for _, m := range memberIdx[prev] {
					cluster[m] = id
				}
				memberIdx[id] = append(memberIdx[id], memberIdx[prev]...)
				delete(memberIdx, prev)
				for kk, own := range keyOwner {
					if own == prev {
						keyOwner[kk] = id
					}
				}
			}
			keyOwner[k] = id
		}
		cluster[i] = id
		memberIdx[id] = append(memberIdx[id], i)
	}
	fusible := false
	for _, members := range memberIdx {
		if len(members) >= 2 {
			fusible = true
		}
	}
	if !fusible {
		return nil
	}
	var out [][]*node
	emitted := map[int]bool{}
	for i, n := range seg {
		id := cluster[i]
		if id == -1 {
			out = append(out, []*node{n})
			continue
		}
		if emitted[id] {
			continue
		}
		emitted[id] = true
		var cl []*node
		for _, m := range memberIdx[id] {
			cl = append(cl, seg[m])
		}
		out = append(out, cl)
	}
	return out
}

// passPlacement classifies every node's streaming capability and assigns
// phase indexes: a barrier op closes its phase.
func (b *builder) passPlacement() {
	phase := 0
	var local, index, barrier int
	for _, n := range b.nodes {
		n.cap = Classify(n.op)
		n.phase = phase
		switch n.cap {
		case ShardLocal:
			local++
			n.notes = append(n.notes, "placement: shard-local (shards flow concurrently)")
		case SharedIndex:
			index++
			n.notes = append(n.notes, "placement: shared signature index, consulted in shard order")
		case Barrier:
			barrier++
			n.notes = append(n.notes, fmt.Sprintf("placement: barrier closing phase %d (drain, merge, re-shard)", phase))
			phase++
		}
	}
	b.record("placement", fmt.Sprintf("%d phases: %d shard-local, %d shared-index, %d barrier",
		phase+1, local, index, barrier))
}

// passCacheBoundary annotates each phase's leading run of shard-local
// ops: the segments whose per-shard results are pure functions of the
// shard's content and therefore shard-cacheable under the streaming
// engine. A shared-index stage ends the cacheable run (later ops see
// data thinned by other shards' signatures); a barrier starts a new
// phase and a new cacheable run.
func (b *builder) passCacheBoundary() {
	n := 0
	leading := true
	for _, nd := range b.nodes {
		switch nd.cap {
		case ShardLocal:
			if leading {
				nd.cacheable = true
				nd.notes = append(nd.notes, "cache: inside its phase's shard-cacheable leading run")
				n++
			}
		case SharedIndex:
			leading = false
		case Barrier:
			leading = true
		}
	}
	switch {
	case n == 0:
		b.record("cache-boundary", "no shard-cacheable runs")
	case n == len(b.nodes):
		b.record("cache-boundary", "entire plan is shard-cacheable")
	default:
		b.record("cache-boundary", fmt.Sprintf("%d of %d ops shard-cacheable (leading runs of their phases)",
			n, len(b.nodes)))
	}
}

// passSpill slices the run's memory target across the spill-capable
// deduplicators: each gets an equal share of half the target (the other
// half stays with sample buffers and shard flow), and its index
// structures spill to disk when they outgrow the share.
// Budgets are annotations only — no directory is created at plan time,
// so -explain stays side-effect free; executors install the spill
// directory just before running.
func (b *builder) passSpill() {
	if b.r.TargetMemMB <= 0 {
		b.record("spill", "no memory target; dedup indexes stay fully in memory")
		return
	}
	var dd []*node
	for _, n := range b.nodes {
		if _, ok := n.op.(ops.Spiller); ok {
			dd = append(dd, n)
		}
	}
	if len(dd) == 0 {
		b.record("spill", "no spill-capable ops")
		return
	}
	share := (int64(b.r.TargetMemMB) << 20) / 2 / int64(len(dd))
	for _, n := range dd {
		n.spill = share
		n.notes = append(n.notes, fmt.Sprintf(
			"spill: disk-backed index over %.1f MiB (share of target_mem_mb=%d)",
			float64(share)/(1<<20), b.r.TargetMemMB))
	}
	b.record("spill", fmt.Sprintf("%d dedup op(s) budgeted %.1f MiB each (half of %d MiB target)",
		len(dd), float64(share)/(1<<20), b.r.TargetMemMB))
}
