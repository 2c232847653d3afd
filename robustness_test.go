package sama

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCloseIsIdempotent(t *testing.T) {
	db := newTestDB(t)
	if err := db.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

func TestOperationsAfterCloseReturnErrClosed(t *testing.T) {
	db := newTestDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("QuerySPARQL after Close: %v, want ErrClosed", err)
	}
	q, err := ParseSPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close: %v, want ErrClosed", err)
	}
	if err := db.Insert([]Triple{{S: NewIRI("a"), P: NewIRI("b"), O: NewIRI("c")}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close: %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if _, err := db.Compact(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after Close: %v, want ErrClosed", err)
	}
	if err := db.DropCache(); !errors.Is(err, ErrClosed) {
		t.Errorf("DropCache after Close: %v, want ErrClosed", err)
	}
}

func TestQueryContextPanicRecovered(t *testing.T) {
	db := newTestDB(t)
	// A nil query graph panics inside the engine; the public API must
	// return it as an error, not crash the caller.
	_, _, err := db.QueryContext(context.Background(), nil, 3)
	if err == nil {
		t.Fatal("expected an error from a nil query graph")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error %q does not mention the recovered panic", err)
	}
}

// largeSyntheticDB builds an index whose clusters are big enough that
// an unbounded top-k search takes well over a millisecond.
func largeSyntheticDB(t *testing.T) *DB {
	t.Helper()
	g := NewGraph()
	add := func(s, p, o Term) { g.AddTriple(Triple{S: s, P: p, O: o}) }
	const n = 400
	for i := 0; i < n; i++ {
		x := NewIRI(fmt.Sprintf("person%d", i))
		a := NewIRI(fmt.Sprintf("amendment%d", i))
		b := NewIRI(fmt.Sprintf("bill%d", i%17))
		add(x, NewIRI("sponsor"), a)
		add(a, NewIRI("aTo"), b)
		add(b, NewIRI("subject"), NewLiteral("Health Care"))
		add(x, NewIRI("gender"), NewLiteral("Male"))
	}
	db, err := Create(filepath.Join(t.TempDir(), "large"), g,
		WithSearchBudget(0, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const bigQuery = `SELECT ?x WHERE {
	?x <sponsor> ?v1 .
	?v1 <aTo> ?v2 .
	?v2 <subject> "Health Care" .
	?v3 <sponsor> ?v1 .
	?v3 <gender> "Male"
}`

// deadlineAtCheckpoint is a context whose deadline lands inside the
// query by construction: Err lets the engine's entry check pass, and at
// every later checkpoint waits until the deadline has passed and then
// reports context.DeadlineExceeded, closing Done with it. A timer's
// deadline lands wherever the clock puts it — after a fast query has
// finished, or late under load.
type deadlineAtCheckpoint struct {
	context.Context // Background, for Value
	deadline        time.Time
	calls           atomic.Int32
	once            sync.Once
	done            chan struct{}
}

func (c *deadlineAtCheckpoint) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *deadlineAtCheckpoint) Done() <-chan struct{}       { return c.done }

func (c *deadlineAtCheckpoint) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	c.once.Do(func() {
		time.Sleep(time.Until(c.deadline))
		close(c.done)
	})
	return context.DeadlineExceeded
}

func TestDeadlineQueryReturnsQuicklyWithSortedPrefix(t *testing.T) {
	db := largeSyntheticDB(t)

	// Sanity: without a deadline the query completes and is not partial.
	full, err := db.QuerySPARQL(bigQuery, 25)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("unbounded query reported Partial")
	}

	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx := &deadlineAtCheckpoint{Context: context.Background(), deadline: start.Add(time.Millisecond), done: make(chan struct{})}
	res, err := db.QuerySPARQLContext(ctx, bigQuery, 25)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline query errored: %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("1ms-deadline query took %v, want under 100ms", elapsed)
	}
	if !res.Partial {
		t.Error("Partial = false under a 1ms deadline, want true")
	}
	if res.StopReason != StopDeadline {
		t.Errorf("StopReason = %q, want %q", res.StopReason, StopDeadline)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Score < res.Answers[i-1].Score {
			t.Fatalf("partial answers out of order at %d: %.4f < %.4f",
				i, res.Answers[i].Score, res.Answers[i-1].Score)
		}
	}
	// The partial prefix can only be as good as or worse than the full
	// run at every rank: the full run saw strictly more combinations.
	for i := range res.Answers {
		if i >= len(full.Answers) {
			break
		}
		if res.Answers[i].Score < full.Answers[i].Score-1e-9 {
			t.Errorf("partial[%d].Score=%.6f beats full[%d].Score=%.6f",
				i, res.Answers[i].Score, i, full.Answers[i].Score)
		}
	}
}

// deadlineInWalk is a context whose deadline lands in the search's
// walk: Err reports nothing until the deadline fires, so the cluster
// phase runs whole, and the deadline is a timer of delay started by the
// first Done call — the search's, just before its walk, which polls the
// channel every 64 visits.
type deadlineInWalk struct {
	context.Context // Background, for Value
	delay           time.Duration
	once            sync.Once
	fired           atomic.Bool
	done            chan struct{}
}

func (c *deadlineInWalk) Done() <-chan struct{} {
	c.once.Do(func() {
		time.AfterFunc(c.delay, func() {
			c.fired.Store(true)
			close(c.done)
		})
	})
	return c.done
}

func (c *deadlineInWalk) Err() error {
	if c.fired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineInWalkReturnsSortedPrefix lands a deadline inside the walk
// (the cluster phase passes whole): the query returns a non-empty
// prefix, in score order and no better than the full run's at any rank,
// marked Partial with StopDeadline, and its search span shows the walk
// cut at a poll. A timer lands wherever the clock puts it, so the delay
// doubles from 20 µs while the deadline fires before the walk's first
// poll and halves while it fires after the walk. At k = 1 000 the walk
// runs ≈ 240 000 visits, long enough for the runtime to preempt it and
// run the timer when there is one P.
func TestDeadlineInWalkReturnsSortedPrefix(t *testing.T) {
	const k = 1000
	db := largeSyntheticDB(t)
	full, err := db.QuerySPARQL(bigQuery, k)
	if err != nil {
		t.Fatal(err)
	}
	search := func(res *Result) map[string]int64 {
		for _, sp := range res.Stats.Trace.Phases {
			if sp.Name == "search" {
				return sp.Attrs
			}
		}
		t.Fatal("no search span in the trace")
		return nil
	}
	fullVisited := search(full)["visited"]
	delay := 20 * time.Microsecond
	for attempt := 0; attempt < 40; attempt++ {
		ctx := &deadlineInWalk{Context: context.Background(), delay: delay, done: make(chan struct{})}
		res, err := db.QuerySPARQLContext(ctx, bigQuery, k)
		if err != nil {
			t.Fatalf("deadline query errored: %v", err)
		}
		sp := search(res)
		switch v := sp["visited"]; {
		case sp["cancelled"] == 1 && v == 0: // before the first poll
			delay *= 2
			continue
		case sp["cancelled"] == 0 || v%64 != 0 || v >= fullVisited: // after the walk
			delay = max(delay/2, time.Microsecond)
			continue
		}
		t.Logf("deadline after %v: span %v of a %d-visit walk", delay, sp, fullVisited)
		if !res.Partial || res.StopReason != StopDeadline {
			t.Errorf("Partial = %v, StopReason = %q; want true, %q", res.Partial, res.StopReason, StopDeadline)
		}
		if len(res.Answers) == 0 {
			t.Fatal("a deadline inside the walk returned no answers")
		}
		for i := range res.Answers {
			if i > 0 && res.Answers[i].Score < res.Answers[i-1].Score {
				t.Fatalf("partial answers out of order at %d: %.4f < %.4f", i, res.Answers[i].Score, res.Answers[i-1].Score)
			}
			if i < len(full.Answers) && res.Answers[i].Score < full.Answers[i].Score-1e-9 {
				t.Errorf("partial[%d].Score=%.6f beats full[%d].Score=%.6f", i, res.Answers[i].Score, i, full.Answers[i].Score)
			}
		}
		return
	}
	t.Fatal("no deadline of 40 landed inside the walk")
}

func TestConcurrentQueriesDuringInserts(t *testing.T) {
	db := newTestDB(t)
	const (
		queriers         = 6
		queriesPerWorker = 15
		insertBatches    = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, queriers*queriesPerWorker+insertBatches)

	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				res, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 5)
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				for j := 1; j < len(res.Answers); j++ {
					if res.Answers[j].Score < res.Answers[j-1].Score {
						errCh <- fmt.Errorf("worker %d query %d: unsorted answers", w, i)
						return
					}
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < insertBatches; b++ {
			s := NewIRI(fmt.Sprintf("NewPerson%d", b))
			ts := []Triple{
				{S: s, P: NewIRI("gender"), O: NewLiteral("Male")},
				{S: s, P: NewIRI("sponsor"), O: NewIRI(fmt.Sprintf("A%04d", 9000+b))},
			}
			if err := db.Insert(ts); err != nil {
				errCh <- fmt.Errorf("insert batch %d: %w", b, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
