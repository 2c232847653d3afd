package index

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"sama/internal/datasets"
)

// TestDerivedSignaturesEqualCommitted: the signatures Open derives from
// the label postings equal, bit for bit, those commitPath computed in the
// process that wrote the files — after Build, on a crash copy that
// replays logged inserts, after a checkpoint of inserts that tombstoned
// paths, and after Compact.
func TestDerivedSignaturesEqualCommitted(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lubm")
	ix, err := Build(base, datasets.LUBM{}.Generate(2_000, 1), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	reopened := func(leg string) {
		t.Helper()
		re, err := Open(crashClone(t, base), Options{})
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		defer re.Close()
		if len(re.sigs) != len(ix.sigs) {
			t.Fatalf("%s: %d signatures reopened, %d committed", leg, len(re.sigs), len(ix.sigs))
		}
		for id, sig := range ix.sigs {
			if re.sigs[id] != sig {
				t.Fatalf("%s: path %d reopens with signature %x, committed %x", leg, id, re.sigs[id], sig)
			}
		}
	}
	reopened("build")

	extra := datasets.LUBM{}.Generate(2_000, 2).Triples()
	for i := range 20 {
		if err := ix.InsertTriples(extra[i*25 : (i+1)*25]); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Contains(ix.deleted, true) {
		t.Fatal("the inserts tombstoned no path")
	}
	reopened("replayed")
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened("checkpointed")
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	reopened("compacted")
}
