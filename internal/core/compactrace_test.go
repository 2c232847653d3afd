package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sama/internal/index"
	"sama/internal/rdf"
)

// TestConcurrentQueryDuringCompaction hammers an engine with queries
// and inserts while compactions run back to back, interleaving their
// rebuilds, which take no index lock, and their swaps, which take the
// write lock, with everything else. Invariants checked on every
// query: no error, and a non-empty ranked answer list whose top
// answer names a senator — an in-flight query sees either the
// pre-compaction state or the post-swap state, never a torn one.
// Run under -race (make check does) this also proves the one-View
// cluster phase has no data races.
func TestConcurrentQueryDuringCompaction(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cr")
	ix, err := index.Build(base, figure1Graph(), index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	e := New(ix, Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		select {
		case <-stop:
		default:
			t.Errorf(format, args...)
		}
	}

	// Readers: the paper's Q1 and Q2, continuously.
	for w, q := range []*rdf.QueryGraph{queryQ1(), queryQ2()} {
		wg.Add(1)
		go func(w int, q *rdf.QueryGraph) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				answers, err := e.Query(q, 3)
				if err != nil {
					fail("reader %d: %v", w, err)
					return
				}
				if len(answers) == 0 {
					fail("reader %d: empty answer set mid-compaction", w)
					return
				}
			}
		}(w, q)
	}

	// Writer: keeps tombstoning and re-enumerating CarlaBunes paths.
	// The iteration cap bounds index growth so the eight compactions
	// below finish promptly even when race instrumentation
	// slows every insert; without it a slow run snowballs (bigger
	// index -> slower compaction -> more inserts).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr := rdf.Triple{
				S: iri("CarlaBunes"),
				P: iri("sponsor"),
				O: iri(fmt.Sprintf("A9%03d", i)),
			}
			if err := ix.InsertTriples([]rdf.Triple{tr}); err != nil {
				fail("writer: %v", err)
				return
			}
		}
	}()

	// Foreground: back-to-back compactions.
	for i := 0; i < 8; i++ {
		cs, err := ix.Compact(context.Background())
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("compaction %d: %v", i, err)
		}
		if cs.Live == 0 {
			t.Errorf("compaction %d emptied the index", i)
		}
	}
	close(stop)
	wg.Wait()

	// The dust settled: answers match a fresh build over the final graph.
	answers, err := e.Query(queryQ1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	refBase := filepath.Join(t.TempDir(), "ref")
	ref, err := index.Build(refBase, ix.Graph(), index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refAnswers, err := New(ref, Options{}).Query(queryQ1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 || len(refAnswers) == 0 {
		t.Fatalf("post-run answers empty: live=%d ref=%d", len(answers), len(refAnswers))
	}
	if answers[0].Score != refAnswers[0].Score {
		t.Errorf("top score %v diverges from reference %v", answers[0].Score, refAnswers[0].Score)
	}
}

// TestAssemblyDecodesClustersTermTable clusters Q1, compacts the index —
// which builds a fresh dictionary, renumbering its terms, and starts a
// new layout — and only then searches the clusters: the answers must be
// the ones the same clusters give with no compaction in between.
// Assembly decodes the items' term IDs through the term table of the
// View the clusters were read in; through the live dictionary it would
// name other terms.
func TestAssemblyDecodesClustersTermTable(t *testing.T) {
	ix, err := index.Build(filepath.Join(t.TempDir(), "fig1"), figure1Graph(), index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	// The insert interns Zed, then the predicate likes, after every node;
	// the compaction interns the labels first, so likes moves ahead of
	// the nodes and renumbers them.
	if err := ix.InsertTriples([]rdf.Triple{{S: iri("Zed"), P: iri("likes"), O: iri("CarlaBunes")}}); err != nil {
		t.Fatal(err)
	}
	terms := func() (ts []rdf.Term) {
		ix.View(func(r index.Reader) error { ts = r.Terms(); return nil })
		return ts
	}
	e := New(ix, Options{})
	ctx := context.Background()
	pre := e.Preprocess(queryQ1())
	clusters, err := e.ClusterContext(ctx, pre)
	if err != nil {
		t.Fatal(err)
	}
	lines := func(answers []Answer) []string {
		out := make([]string, len(answers))
		for i, a := range answers {
			out[i] = fingerprint(a)
		}
		return out
	}
	want := lines(e.SearchContext(ctx, pre, clusters, 10))
	if len(want) == 0 {
		t.Fatal("no answers")
	}
	before := terms()
	if _, err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	after := terms()
	if n := min(len(before), len(after)); slices.Equal(before[:n], after[:n]) {
		t.Fatal("test setup: the compaction kept every term's ID")
	}
	if got := lines(e.SearchContext(ctx, pre, clusters, 10)); !slices.Equal(got, want) {
		t.Errorf("answers after the compaction:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
