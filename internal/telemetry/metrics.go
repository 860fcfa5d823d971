// Package telemetry is the unified runtime-observability substrate shared
// by both execution backends: a zero-dependency metrics registry (atomic
// counters, gauges, and fixed-bucket histograms behind handles resolved
// once at registration, so the hot path never hashes a name or allocates),
// a structured run journal (an append-only JSONL event stream with a
// stable schema — run_start, plan, phase, span_start/span_end,
// op_complete, cache_hit, trace, export, run_end), a live ops endpoint
// (/metrics in Prometheus text exposition format,
// /progress JSON snapshots with EWMA rates and a planner-derived ETA,
// /debug/pprof), and span tracing of pipeline phases and shard
// lifecycles so a run can be reconstructed into a timeline
// (djanalyze -timeline). See docs/observability.md.
//
// The package deliberately imports nothing from the rest of the
// repository: internal/core and internal/stream adapt their own types
// into it, never the other way around.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use and nil-safe, so code
// instrumented with unresolved (nil) handles costs one branch.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// atomicFloat is a float64 updated through CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket-layout histogram: bucket bounds are set at
// registration and never change, so Observe is a bounded scan plus
// atomic increments — no locks, no allocation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// DurationBuckets is the fixed layout for operator and span wall times,
// in seconds.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// SizeBuckets is the fixed layout for shard/batch sample counts.
var SizeBuckets = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Label is one metric dimension. Label sets are interned at registration
// (the InternStatKey pattern): the rendered form is computed once and
// the returned handle carries no labels at all.
type Label struct{ Key, Value string }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels string // pre-rendered {k="v",...}, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name  string
	help  string
	kind  metricKind
	scale float64 // render multiplier (0 = 1); e.g. 1e-9 for ns → seconds
	mu    sync.Mutex
	order []string
	index map[string]*series
}

// Registry holds the run's metric families. Registration locks; the
// returned handles are lock-free.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, scale float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, scale: scale, index: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (f *family) series(labels []Label) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.index[key]
	if !ok {
		s = &series{labels: key}
		switch f.kind {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		}
		f.index[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, counterKind, 0).series(labels).c
}

// ScaledCounter is a counter whose rendered value is multiplied by scale:
// accumulate nanoseconds cheaply, expose Prometheus-conventional seconds.
func (r *Registry) ScaledCounter(name, help string, scale float64, labels ...Label) *Counter {
	return r.family(name, help, counterKind, scale).series(labels).c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, gaugeKind, 0).series(labels).g
}

// Histogram registers (or finds) a histogram series with the given fixed
// bucket layout and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.family(name, help, histogramKind, 0)
	s := f.series(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.h == nil {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		s.h = h
	}
	return s.h
}

// renderLabels produces the canonical {k="v",...} form with sorted keys
// and escaped values.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// mergeLabels splices an extra label (le=...) into a rendered label set.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatValue(v int64, scale float64) string {
	if scale == 0 {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(float64(v)*scale, 'g', -1, 64)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, series in
// registration order within each family.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		series := make([]*series, len(keys))
		for i, k := range keys {
			series[i] = f.index[k]
		}
		f.mu.Unlock()

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.c.Value(), f.scale))
			case gaugeKind:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.g.Value(), f.scale))
			case histogramKind:
				h := s.h
				if h == nil {
					continue
				}
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					le := mergeLabels(s.labels, `le="`+formatFloat(bound)+`"`)
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				le := mergeLabels(s.labels, `le="+Inf"`)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
