package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Span is one timed phase of a query execution. Spans form a tree:
// the engine opens one top-level span per phase (decompose, cluster,
// search, assemble) and nests per-cluster alignment spans under the
// clustering phase. Child creation and attribute writes are safe from
// concurrent goroutines; a span must be Ended by the goroutine that
// owns it before the trace is published.
type Span struct {
	Name string `json:"name"`
	// Offset is the span's start relative to the trace start.
	Offset time.Duration `json:"offset_ns"`
	// Duration is the span's wall-clock length, set by End.
	Duration time.Duration    `json:"duration_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	start time.Time
	mu    sync.Mutex
	ended bool
}

// End stamps the span's duration. Idempotent: the first call wins, even
// when the measured duration is 0 on a coarse clock.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.Duration = time.Since(s.start)
	}
}

// Child opens a sub-span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Span{Name: name, Offset: s.Offset + now.Sub(s.start), start: now}
	s.Children = append(s.Children, c)
	return c
}

// Set records an integer attribute on the span.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64, 4)
	}
	s.Attrs[key] = v
}

// IOStats attributes storage-level work to one query: the buffer pool
// counter deltas observed across the query's execution. Under
// concurrent queries the pool is shared, so the attribution is
// approximate — a query may absorb a neighbour's traffic.
type IOStats struct {
	// PageReads is the number of logical page accesses (hits + misses).
	PageReads uint64 `json:"page_reads"`
	// CacheHits / CacheMisses split PageReads by pool residency; a miss
	// is one physical read.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Retries counts transient-fault retry attempts absorbed by the
	// pool's retry policy during the query.
	Retries uint64 `json:"retries"`
	// BatchedPages counts pages touched through page-locality batched
	// reads: the engine reads every page that way, so it equals
	// PageReads.
	BatchedPages uint64 `json:"batched_pages"`
}

// Trace is the full observability record of one query execution: the
// phase span tree plus end-to-end totals, storage attribution, and the
// partial-result outcome. A trace is mutable while the query runs and
// must be treated as read-only once published (to the query log ring or
// a slow-query hook).
type Trace struct {
	// ID identifies the trace within this process: a per-process random
	// prefix plus a sequence number. It is what slow-query events and
	// the Chrome-trace export use to cross-reference a trace in
	// /debug/lastqueries. IDs are unique per process, not globally.
	ID string `json:"trace_id"`
	// Query is a bounded description of the query (set by the API layer;
	// empty for direct engine calls).
	Query string `json:"query,omitempty"`
	// Begin is the query's start time.
	Begin time.Time `json:"begin"`
	// Total is the end-to-end execution time.
	Total time.Duration `json:"total_ns"`
	// Phases are the top-level spans in execution order.
	Phases []*Span `json:"phases"`
	// IO is the storage-level attribution for the query.
	IO IOStats `json:"io"`
	// Partial and StopReason mirror QueryStats: whether the query
	// stopped early and why.
	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// Answers is the number of answers returned.
	Answers int `json:"answers"`

	mu sync.Mutex
}

// traceIDSeed is a per-process random prefix so trace IDs from
// different processes (or restarts) don't collide in aggregated logs.
var traceIDSeed = func() uint32 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint32(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint32(b[:])
}()

var traceIDSeq atomic.Uint64

// NewTrace starts a trace clocked from now, stamped with a fresh ID.
func NewTrace() *Trace {
	return &Trace{
		ID:    fmt.Sprintf("%08x-%06x", traceIDSeed, traceIDSeq.Add(1)&0xffffff),
		Begin: time.Now(),
	}
}

// Phase opens a new top-level span. Phases are opened sequentially by
// the engine's query loop.
func (t *Trace) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &Span{Name: name, Offset: now.Sub(t.Begin), start: now}
	t.mu.Lock()
	t.Phases = append(t.Phases, s)
	t.mu.Unlock()
	return s
}

// Finish stamps the trace total.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Total = time.Since(t.Begin)
}

// attrString renders a span's attributes as sorted k=v pairs.
func attrString(attrs map[string]int64) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, attrs[k])
	}
	return out
}

// WriteTable renders the trace as an aligned per-phase table — the
// `sama query -stats` output.
func (t *Trace) WriteTable(w io.Writer) {
	if t == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tduration\tdetail")
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		fmt.Fprintf(tw, "%s%s\t%v\t%s\n", indent, s.Name, s.Duration.Round(time.Microsecond), attrString(s.Attrs))
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range t.Phases {
		walk(s, 0)
	}
	fmt.Fprintf(tw, "io\t\treads=%d hits=%d misses=%d retries=%d batched_pages=%d\n",
		t.IO.PageReads, t.IO.CacheHits, t.IO.CacheMisses, t.IO.Retries, t.IO.BatchedPages)
	detail := fmt.Sprintf("answers=%d", t.Answers)
	if t.Partial {
		detail += fmt.Sprintf(" partial=%q", t.StopReason)
	}
	fmt.Fprintf(tw, "total\t%v\t%s\n", t.Total.Round(time.Microsecond), detail)
	tw.Flush()
}

// QueryLog is a fixed-capacity ring of the most recent query traces,
// safe for concurrent use. Published traces are read-only.
type QueryLog struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// QueryLogSize is the trace ring a database keeps for DB.LastQueries
// and /debug/lastqueries.
const QueryLogSize = 32

// NewQueryLog returns a ring holding the last n traces (n ≤ 0 selects
// QueryLogSize).
func NewQueryLog(n int) *QueryLog {
	if n <= 0 {
		n = QueryLogSize
	}
	return &QueryLog{buf: make([]*Trace, n)}
}

// Add records a finished trace. Nil traces are ignored.
func (l *QueryLog) Add(t *Trace) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = t
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// Snapshot returns the recorded traces, most recent first.
func (l *QueryLog) Snapshot() []*Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Trace, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}
