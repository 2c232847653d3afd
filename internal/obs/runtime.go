package obs

import "runtime/metrics"

// runtimeSamples are the scalar runtime/metrics the registry exposes,
// each as a gauge read at scrape time.
var runtimeSamples = []struct {
	src  string
	name string
	help string
}{
	{"/sched/goroutines:goroutines", "sama_runtime_goroutines", "Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "sama_runtime_heap_objects_bytes", "Bytes of live heap objects."},
	{"/memory/classes/total:bytes", "sama_runtime_memory_total_bytes", "Total memory mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "sama_runtime_gc_cycles_total", "Completed GC cycles."},
}

// runtimeHists are the two histogram-valued metrics (GC pause,
// scheduler latency), reduced to p50/p99/max quantile gauges — the
// runtime publishes them as cumulative histograms whose bucket layout
// is its own, so quantiles are the honest stable projection into the
// registry.
var runtimeHists = []struct {
	src  string
	name string
	help string
}{
	{"/gc/pauses:seconds", "sama_runtime_gc_pause_seconds", "GC stop-the-world pause quantiles."},
	{"/sched/latencies:seconds", "sama_runtime_sched_latency_seconds", "Goroutine scheduling latency quantiles."},
}

var runtimeQuantiles = []struct {
	q     float64
	label string
}{
	{0.5, "0.5"}, {0.99, "0.99"}, {1.0, "max"},
}

// RegisterRuntime publishes the Go runtime's own measurements — GC
// pause and scheduler-latency quantiles, heap and total memory,
// goroutine count, GC cycles — as scrape-time gauges over
// runtime/metrics: every scrape reads the runtime, nothing polls in
// between. A nil registry registers nothing.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	for _, def := range runtimeSamples {
		r.GaugeFunc(def.name, def.help, func() float64 {
			switch v := readRuntime(def.src); v.Kind() {
			case metrics.KindUint64:
				return float64(v.Uint64())
			case metrics.KindFloat64:
				return v.Float64()
			}
			return 0
		})
	}
	for _, def := range runtimeHists {
		for _, q := range runtimeQuantiles {
			r.GaugeFunc(def.name, def.help, func() float64 {
				v := readRuntime(def.src)
				if v.Kind() != metrics.KindFloat64Histogram {
					return 0
				}
				return histQuantile(v.Float64Histogram(), q.q)
			}, "q", q.label)
		}
	}
}

// readRuntime reads one runtime/metrics sample. Each call owns its
// sample, so concurrent scrapes never share a buffer.
func readRuntime(src string) metrics.Value {
	s := []metrics.Sample{{Name: src}}
	metrics.Read(s)
	return s[0].Value
}

// histQuantile returns the upper bound of the bucket containing the
// q-quantile of a runtime cumulative histogram (0 when empty).
// Infinite bucket edges are clamped to the nearest finite edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			ub := h.Buckets[i+1]
			if ub > 1e300 || ub != ub { // +Inf guard
				ub = h.Buckets[i]
			}
			if ub < -1e300 {
				ub = 0
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
