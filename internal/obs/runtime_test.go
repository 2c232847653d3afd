package obs

import (
	"io"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRuntimeMetricsReadAtScrape scrapes /metrics twice around a forced
// GC with nothing running in between: the GC-cycle gauge must rise —
// the scrape itself reads runtime/metrics — and all six sama_runtime_*
// families must be served as gauges with their label sets.
func TestRuntimeMetricsReadAtScrape(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	srv := httptest.NewServer(DebugMux(reg, nil, nil))
	defer srv.Close()
	scrape := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cycles := func(doc string) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^sama_runtime_gc_cycles_total (\S+)$`).FindStringSubmatch(doc)
		if m == nil {
			t.Fatalf("no sama_runtime_gc_cycles_total sample in:\n%s", doc)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	before := scrape()
	runtime.GC()
	after := scrape()
	if b, a := cycles(before), cycles(after); a <= b {
		t.Errorf("gc cycles %v → %v across runtime.GC(): the scrape did not read the runtime", b, a)
	}

	for _, want := range []string{
		"# TYPE sama_runtime_gc_cycles_total gauge",
		"# TYPE sama_runtime_gc_pause_seconds gauge",
		"# TYPE sama_runtime_goroutines gauge",
		"# TYPE sama_runtime_heap_objects_bytes gauge",
		"# TYPE sama_runtime_memory_total_bytes gauge",
		"# TYPE sama_runtime_sched_latency_seconds gauge",
		`sama_runtime_gc_pause_seconds{q="0.5"} `,
		`sama_runtime_gc_pause_seconds{q="0.99"} `,
		`sama_runtime_gc_pause_seconds{q="max"} `,
		`sama_runtime_sched_latency_seconds{q="0.5"} `,
		`sama_runtime_sched_latency_seconds{q="0.99"} `,
		`sama_runtime_sched_latency_seconds{q="max"} `,
		"sama_runtime_goroutines ",
		"sama_runtime_heap_objects_bytes ",
		"sama_runtime_memory_total_bytes ",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if got := strings.Count(after, "\nsama_runtime_"); got != 10 {
		t.Errorf("%d sama_runtime_* samples, want 10", got)
	}
	// After a GC the pause histogram is non-empty, so its max is real.
	if m := regexp.MustCompile(`(?m)^sama_runtime_gc_pause_seconds\{q="max"\} (\S+)$`).FindStringSubmatch(after); m == nil || m[1] == "0" {
		t.Errorf("gc pause max after a forced GC = %v, want > 0", m)
	}
}
