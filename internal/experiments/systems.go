// Package experiments implements the paper's evaluation (§6): the
// indexing measurements of Table 1, the response-time comparisons of
// Figure 6 (cold and warm cache), the scalability sweeps of Figure 7,
// the effectiveness counts of Figure 8, the precision/recall curves of
// Figure 9 and the reciprocal-rank check of §6.3. The cmd/experiments
// binary and the repository's benchmark suite are thin wrappers around
// this package.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"sama/internal/align"
	"sama/internal/baselines"
	"sama/internal/baselines/bounded"
	"sama/internal/baselines/dogma"
	"sama/internal/baselines/sapper"
	"sama/internal/core"
	"sama/internal/index"
	"sama/internal/rdf"
	"sama/internal/textindex"
	"sama/internal/workload"
)

// RunResult is one answer a system produced: the matched subgraph and
// the variable bindings, both needed by the effectiveness judging.
type RunResult struct {
	Graph *rdf.Graph
	Subst rdf.Substitution
}

// System is one query answering system under comparison. Run answers a
// query and reports the produced answers (for effectiveness judging) —
// timing is done by the caller around Run.
type System interface {
	// Name identifies the system in the output (Sama, Sapper, Bounded,
	// Dogma).
	Name() string
	// Run answers the query, best answer first. k ≤ 0 means unlimited.
	Run(q workload.Query, k int) ([]RunResult, error)
	// ColdStart drops any caches so the next Run is a cold-cache run.
	// Systems without disk state may make it a no-op.
	ColdStart() error
	// Close releases resources.
	Close() error
}

// SamaSystem wraps the path-index engine.
type SamaSystem struct {
	idx    *index.Index
	engine *core.Engine
}

// NewSamaSystem indexes g under dir and returns the system. The paper's
// coefficients (§6.2) are applied, with the benchmark thesaurus playing
// WordNet's role.
func NewSamaSystem(dir string, g *rdf.Graph) (*SamaSystem, error) {
	idx, err := index.Build(filepath.Join(dir, "sama-index"), g, index.Options{
		Thesaurus: textindex.BenchmarkThesaurus(),
	})
	if err != nil {
		return nil, err
	}
	return &SamaSystem{
		idx:    idx,
		engine: core.New(idx, core.Options{Params: align.DefaultParams}),
	}, nil
}

// Name implements System.
func (s *SamaSystem) Name() string { return "Sama" }

// Engine exposes the underlying engine for the scalability sweeps.
func (s *SamaSystem) Engine() *core.Engine { return s.engine }

// Index exposes the underlying index (Table 1 statistics, path counts).
func (s *SamaSystem) Index() *index.Index { return s.idx }

// Run implements System.
func (s *SamaSystem) Run(q workload.Query, k int) ([]RunResult, error) {
	answers, err := s.engine.Query(q.Pattern, k)
	if err != nil {
		return nil, err
	}
	out := make([]RunResult, len(answers))
	for i, a := range answers {
		out[i] = RunResult{Graph: a.Graph(), Subst: a.Subst}
	}
	return out, nil
}

// Graph returns the indexed data graph (retained by the index build).
func (s *SamaSystem) Graph() *rdf.Graph { return s.idx.Graph() }

// ColdStart implements System by dropping the engine's alignment memo
// and the buffer pool: the next Run reads its pages from disk again.
func (s *SamaSystem) ColdStart() error {
	s.engine.DropCaches()
	return s.idx.DropCache()
}

// Close implements System.
func (s *SamaSystem) Close() error { return s.idx.Close() }

// baselineSystem adapts a baselines.Matcher to System.
type baselineSystem struct {
	m baselines.Matcher
}

// Name implements System.
func (b baselineSystem) Name() string { return b.m.Name() }

// Run implements System.
func (b baselineSystem) Run(q workload.Query, k int) ([]RunResult, error) {
	matches, err := b.m.Query(q.Pattern, k)
	if err != nil {
		return nil, err
	}
	out := make([]RunResult, len(matches))
	for i, m := range matches {
		out[i] = RunResult{Graph: m.Graph, Subst: m.Subst}
	}
	return out, nil
}

// ColdStart implements System (in-memory matchers have no disk cache;
// the paper notes most related systems assume memory-resident data).
func (baselineSystem) ColdStart() error { return nil }

// Close implements System.
func (baselineSystem) Close() error { return nil }

// BaselineBudget caps baseline result enumeration so the quadratic-ish
// matchers terminate on the benchmark graphs.
const BaselineBudget = 2000

// NewAllSystems builds the four systems of the comparison over the same
// data graph. The caller owns Close on each.
func NewAllSystems(dir string, g *rdf.Graph) ([]System, error) {
	sama, err := NewSamaSystem(dir, g)
	if err != nil {
		return nil, fmt.Errorf("experiments: build sama: %w", err)
	}
	return []System{
		sama,
		baselineSystem{sapper.New(g, sapper.Options{MaxResults: BaselineBudget})},
		baselineSystem{bounded.New(g, bounded.Options{MaxResults: BaselineBudget})},
		baselineSystem{dogma.New(g, dogma.Options{MaxResults: BaselineBudget})},
	}, nil
}

// TempDir creates a scratch directory for index files; callers remove
// it when done.
func TempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "sama-exp-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
