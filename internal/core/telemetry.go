package core

import (
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file adapts core types onto the telemetry substrate
// (internal/telemetry, which deliberately imports nothing from the rest
// of the repository): the telemetry observer, plan-node registration, journal
// event construction, and report-row conversion shared by both backends.

// telemetryObserver routes runner observations to per-op instrument
// handles resolved once at attach time — the hot path is one map lookup
// plus atomic adds, no allocation.
type telemetryObserver struct {
	byOp map[ops.OP]*telemetry.OpMetrics
}

func (t *telemetryObserver) ObserveOp(o OpObservation) {
	if m, ok := t.byOp[o.Op]; ok {
		m.Observe(o.In, o.Out, o.Bytes, o.Duration)
	}
}

// AttachTelemetry registers every plan node with the run's metric
// registry and returns an observer feeding those instruments. Predicted
// cost is forwarded only when measured (ns/sample); static hint units
// would poison the ETA.
func AttachTelemetry(t *telemetry.Run, p *plan.Plan) OpObserver {
	if t == nil || p == nil {
		return nil
	}
	byOp := make(map[ops.OP]*telemetry.OpMetrics, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		var predNS int64
		if n.Measured {
			predNS = int64(n.Cost)
		}
		byOp[n.Op] = t.RegisterOp(i, n.Op.Name(), predNS, n.Selectivity)
	}
	return &telemetryObserver{byOp: byOp}
}

// OpKind names an operator's category for journal events.
func OpKind(op ops.OP) string {
	switch op.(type) {
	case ops.Filter:
		return "filter"
	case ops.Deduplicator:
		return "deduplicator"
	default:
		return "mapper"
	}
}

// PlanEvent builds the journal's plan event from a physical plan,
// including per-pass durations.
func PlanEvent(p *plan.Plan) telemetry.Event {
	e := telemetry.Event{Type: telemetry.EvPlan}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		op := telemetry.PlanOp{
			Name:        n.Op.Name(),
			Kind:        OpKind(n.Op),
			Phase:       n.Phase,
			Selectivity: n.Selectivity,
			Measured:    n.Measured,
		}
		if n.Measured {
			op.CostNS = int64(n.Cost)
		}
		if ff, ok := n.Op.(*plan.FusedFilter); ok {
			for _, m := range ff.Members() {
				op.Members = append(op.Members, m.Name())
			}
		}
		e.Ops = append(e.Ops, op)
	}
	for _, pass := range p.Passes {
		e.Passes = append(e.Passes, telemetry.PlanPass{
			Name: pass.Name, Detail: pass.Detail, DurNS: int64(pass.Dur),
		})
	}
	return e
}

// TraceJournalSink adapts tracer records into journal trace events:
// lineage joins the journal instead of living in a parallel file.
func TraceJournalSink(t *telemetry.Run) func(trace.Event) {
	return func(e trace.Event) {
		ev := telemetry.Event{
			Type: telemetry.EvTrace, Name: e.OpName, Kind: e.Kind,
			In: int64(e.InCount), Out: int64(e.OutCount),
			DurNS: int64(e.Duration), CacheHit: e.CacheHit,
		}
		if len(e.Edits) > 0 || len(e.Discards) > 0 || len(e.DupPairs) > 0 {
			ev.Attrs = map[string]any{}
			if len(e.Edits) > 0 {
				ev.Attrs["edits"] = e.Edits
			}
			if len(e.Discards) > 0 {
				ev.Attrs["discards"] = e.Discards
			}
			if len(e.DupPairs) > 0 {
				ev.Attrs["dup_pairs"] = e.DupPairs
			}
		}
		t.Emit(ev)
	}
}

// TelemetryRows converts executed op stats into the shared table rows
// both backends render, fused-member attribution included.
func TelemetryRows(stats []OpStat) []telemetry.OpRow {
	rows := make([]telemetry.OpRow, 0, len(stats))
	for _, st := range stats {
		row := telemetry.OpRow{
			Name: st.Name, In: st.InCount, Out: st.OutCount,
			Dur: st.Duration, CacheHit: st.CacheHit,
		}
		for _, m := range st.Members {
			row.Members = append(row.Members, telemetry.MemberRow{
				Name: m.Name, In: m.In, Out: m.Out, Dur: m.Duration,
			})
		}
		rows = append(rows, row)
	}
	return rows
}
