package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sama/internal/align"
	"sama/internal/index"
	"sama/internal/storage"
)

// budgetCtx is a context whose Err() starts reporting DeadlineExceeded
// after a fixed number of calls — a deterministic stand-in for a
// deadline firing mid-search, aimed at the engine's cooperative
// cancellation checkpoints.
type budgetCtx struct {
	context.Context
	calls  atomic.Int64
	budget int64
}

func newBudgetCtx(budget int64) *budgetCtx {
	return &budgetCtx{Context: context.Background(), budget: budget}
}

func (b *budgetCtx) Err() error {
	if b.calls.Add(1) > b.budget {
		return context.DeadlineExceeded
	}
	return nil
}

func sortedByScore(t *testing.T, answers []Answer) {
	t.Helper()
	for i := 1; i < len(answers); i++ {
		if answers[i].Score < answers[i-1].Score {
			t.Fatalf("answers out of order: [%d]=%.4f < [%d]=%.4f",
				i, answers[i].Score, i-1, answers[i-1].Score)
		}
	}
}

func TestQueryContextAlreadyCancelled(t *testing.T) {
	e := newTestEngine(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, st, err := e.QueryWithStatsContext(ctx, queryQ1(), 5)
	if err != nil {
		t.Fatalf("cancelled query errored: %v", err)
	}
	if len(answers) != 0 {
		t.Errorf("cancelled-before-start query returned %d answers, want 0", len(answers))
	}
	if !st.Partial {
		t.Error("Partial = false, want true")
	}
	if st.StopReason != StopCancelled {
		t.Errorf("StopReason = %q, want %q", st.StopReason, StopCancelled)
	}
}

func TestQueryContextDeadlineReason(t *testing.T) {
	e := newTestEngine(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 0) // expired at birth
	defer cancel()
	_, st, err := e.QueryWithStatsContext(ctx, queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Partial || st.StopReason != StopDeadline {
		t.Errorf("Partial=%v StopReason=%q, want true/%q", st.Partial, st.StopReason, StopDeadline)
	}
}

// TestSearchContextMidCancelPrefix cancels the combination search after
// a fixed number of frontier iterations and checks the truncated result
// against the full run: the prefix must stay sorted by score, and every
// rank can only be as good as or worse than the full run's same rank
// (the full run has seen strictly more combinations).
func TestSearchContextMidCancelPrefix(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	clusters, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	full := e.Search(pre, clusters, 0)
	if len(full) == 0 {
		t.Fatal("full search returned no answers")
	}
	sortedByScore(t, full)

	for _, budget := range []int64{1, 2, 3, 5, 8} {
		partial := e.SearchContext(newBudgetCtx(budget), pre, clusters, 0)
		sortedByScore(t, partial)
		if len(partial) > len(full) {
			t.Fatalf("budget %d: partial has %d answers, full only %d", budget, len(partial), len(full))
		}
		for i := range partial {
			if partial[i].Score < full[i].Score-1e-9 {
				t.Errorf("budget %d: partial[%d].Score=%.6f beats full[%d].Score=%.6f",
					budget, i, partial[i].Score, i, full[i].Score)
			}
		}
	}

	// A budget beyond the search space must reproduce the full run.
	unbounded := e.SearchContext(newBudgetCtx(1_000_000), pre, clusters, 0)
	if len(unbounded) != len(full) {
		t.Fatalf("unbounded budget: %d answers, full %d", len(unbounded), len(full))
	}
	fullScores := make([]float64, len(full))
	unbScores := make([]float64, len(unbounded))
	for i := range full {
		fullScores[i] = full[i].Score
		unbScores[i] = unbounded[i].Score
	}
	if !reflect.DeepEqual(fullScores, unbScores) {
		t.Errorf("unbounded scores %v != full scores %v", unbScores, fullScores)
	}
}

func TestClusterContextRecoversPanic(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	// A nil reader panics on the first read; the goroutine recovery must
	// turn that into an error, not a crash.
	e.wrap = func(backend) backend { return nil }
	_, err := e.ClusterContext(context.Background(), pre)
	if err == nil {
		t.Fatal("expected an error from a panicking cluster goroutine")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error %q does not mention the recovered panic", err)
	}
}

func TestOptionsZeroParamsAreDefault(t *testing.T) {
	// A zero Params means DefaultParams, in the options and the engine.
	if got := (Options{}).params(); got != align.DefaultParams {
		t.Errorf("zero Params => %+v, want DefaultParams", got)
	}
	if got := New(nil, Options{}).Params(); got != align.DefaultParams {
		t.Errorf("engine params = %+v, want DefaultParams", got)
	}
	// Any other Params is used as given.
	p := align.Params{A: 2, B: 1, C: 4, D: 2, E: 1}
	if got := New(nil, Options{Params: p}).Params(); got != p {
		t.Errorf("engine params = %+v, want %+v", got, p)
	}
}

// buildFaultyEngine builds a real on-disk index with a fault injector
// between the buffer pool and the page file.
func buildFaultyEngine(t *testing.T) (*Engine, *storage.FaultInjector) {
	t.Helper()
	var inj *storage.FaultInjector
	base := filepath.Join(t.TempDir(), "faulty")
	ix, err := index.Build(base, figure1Graph(), index.Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			inj = storage.NewFaultInjector(io)
			return inj
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if inj == nil {
		t.Fatal("WrapIO hook never invoked")
	}
	// The alignment memo would satisfy the repeat query without touching
	// storage; these tests exist to drive the read path through faults,
	// so it is purged before each query.
	return memoFree(ix, Options{}), inj
}

// TestTransientReadFaultDuringClusteringFailsThenHeals: a transient
// page fault fails the query that meets it, with an error naming the
// page and the path being read; once the fault has healed, the same
// query returns the baseline answers.
func TestTransientReadFaultDuringClusteringFailsThenHeals(t *testing.T) {
	e, inj := buildFaultyEngine(t)
	baseline, err := e.Query(queryQ1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Index().DropCache(); err != nil {
		t.Fatal(err)
	}
	inj.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Transient, Page: 1})

	_, err = e.Query(queryQ1(), 3)
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("query under a transient fault = %v, want an error unwrapping to ErrTransient", err)
	}
	if !strings.Contains(err.Error(), "page 1") || !strings.Contains(err.Error(), "read path") {
		t.Errorf("error %q does not name the failed page and the path being read", err)
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want once", inj.Fired())
	}

	answers, err := e.Query(queryQ1(), 3)
	if err != nil {
		t.Fatalf("query after the fault healed: %v", err)
	}
	if len(answers) != len(baseline) {
		t.Fatalf("healed run: %d answers, want the baseline's %d", len(answers), len(baseline))
	}
	for i := range answers {
		if got, want := fingerprint(answers[i]), fingerprint(baseline[i]); got != want {
			t.Errorf("healed run, answer %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestPermanentPageFaultSurfacesWrappedError(t *testing.T) {
	e, inj := buildFaultyEngine(t)
	if err := e.Index().DropCache(); err != nil {
		t.Fatal(err)
	}
	inj.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent, Page: 1})

	_, err := e.Query(queryQ1(), 3)
	if err == nil {
		t.Fatal("expected an error from a permanent page fault")
	}
	if !errors.Is(err, storage.ErrPermanent) {
		t.Errorf("error %v does not unwrap to ErrPermanent", err)
	}
	if !strings.Contains(err.Error(), "page 1") {
		t.Errorf("error %q does not name the failed page", err)
	}
	if !strings.Contains(err.Error(), "read path") {
		t.Errorf("error %q does not name the path being read", err)
	}
}
