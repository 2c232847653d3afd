// Package obs is the stdlib-only observability layer of the engine: a
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, a per-query span-tree trace, a ring
// buffer of recent query traces, and a debug HTTP mux that mounts the
// exposition endpoints next to net/http/pprof.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Span or *Trace are no-ops, so instrumented code paths
// never have to guard against observability being disabled.
package obs

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

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds delta to the float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		niu := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, niu) {
			return
		}
	}
}

// DefBuckets are the default latency buckets (seconds), tuned for the
// paper's sub-second query regime: 100µs resolution at the bottom,
// tens of seconds at the top.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram. An observation lands in the
// first bucket whose upper bound is ≥ the value; values above every
// bound land in the implicit +Inf overflow bucket.
type Histogram struct {
	bounds []float64       // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the
// overflow bucket last.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// metric kinds.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func kindName(k int) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

type series struct {
	labels string // rendered, sorted `k="v"` pairs joined by ","; "" if none
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	cfn    func() uint64
	gfn    func() float64
}

type family struct {
	name, help string
	kind       int
	series     map[string]*series
}

// Registry is a named collection of metrics. All methods are
// get-or-create: asking for the same name and label set returns the
// same handle. Registering a name twice with a different metric kind
// panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString renders k,v pairs sorted by key, Prometheus-escaped.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+escapeLabel(labels[i+1])+`"`)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup returns the series for (name, labels), creating family and
// series as needed. mk populates a fresh series.
func (r *Registry) lookup(name, help string, kind int, labels []string, mk func(*series)) *series {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
			name, kindName(kind), kindName(fam.kind)))
	}
	s, ok := fam.series[ls]
	if !ok {
		s = &series{labels: ls}
		mk(s)
		fam.series[ls] = s
	}
	return s
}

// Counter returns the counter for name and the optional k,v label
// pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func(s *series) { s.ctr = &Counter{} })
	return s.ctr
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// Histogram returns the histogram for name and labels, creating it with
// the given bucket upper bounds on first use (nil selects DefBuckets).
// Re-requesting an existing histogram with different bounds panics, like
// a kind mismatch: two call sites disagreeing on buckets is a
// programming error that would otherwise be silently masked.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	s := r.lookup(name, help, kindHistogram, labels, func(s *series) { s.hist = newHistogram(bounds) })
	if !sameBounds(s.hist.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with bounds %v (was %v)",
			name, bounds, s.hist.bounds))
	}
	return s.hist
}

// sameBounds reports whether the requested bounds match the existing
// histogram's (which are stored sorted).
func sameBounds(have, want []float64) bool {
	if len(have) != len(want) {
		return false
	}
	ws := append([]float64(nil), want...)
	sort.Float64s(ws)
	for i := range have {
		if have[i] != ws[i] {
			return false
		}
	}
	return true
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — used to surface counters owned by another subsystem
// (e.g. the buffer pool) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.lookup(name, help, kindCounterFunc, labels, func(s *series) { s.cfn = fn })
}

// GaugeFunc registers a gauge evaluated at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, kindGaugeFunc, labels, func(s *series) { s.gfn = fn })
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// famSnapshot is a point-in-time copy of one family taken under the
// registry lock: lookup may insert new series concurrently with a
// scrape, so the exposition path must never touch family.series maps
// unlocked. The series pointers themselves are immutable once created.
type famSnapshot struct {
	name, help string
	kind       int
	series     []*series // sorted by label string
}

// WritePrometheus writes every metric in the classic Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// by label set, so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		snap := famSnapshot{name: f.name, help: f.help, kind: f.kind,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			snap.series = append(snap.series, s)
		}
		sort.Slice(snap.series, func(i, j int) bool {
			return snap.series[i].labels < snap.series[j].labels
		})
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, kindName(f.kind))
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.ctr.Value())
			case kindCounterFunc:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.cfn())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(s.labels), formatFloat(s.gauge.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(s.labels), formatFloat(s.gfn()))
			case kindHistogram:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps a non-empty label string in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// withLE appends the le label to an existing label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	var cum uint64
	counts := h.BucketCounts()
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, formatFloat(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(s.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(s.labels), cum)
}
