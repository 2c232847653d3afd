package index

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"sama/internal/datasets"
	"sama/internal/rdf"
	"sama/internal/textindex"
)

// crashedWALIndex builds a 2 000-triple LUBM index, inserts
// 40 batches of 25 unseen triples without ever checkpointing, and
// copies its files — every batch is pending in the log — returning the
// copy opened, which replays them, with the replay statistics.
func crashedWALIndex(b *testing.B) (*Index, RecoveryStats) {
	b.Helper()
	const baseTriples, batchSize, batches = 2_000, 25, 40
	base := filepath.Join(b.TempDir(), "ix")
	ix, err := Build(base, datasets.LUBM{}.Generate(baseTriples, 1), Options{
		CheckpointBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	extra := datasets.LUBM{}.Generate(baseTriples, 2).Triples()
	for i := 0; i < batches; i++ {
		if err := ix.InsertTriples(extra[i*batchSize : (i+1)*batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	re, err := Open(crashClone(b, base), Options{})
	if err != nil {
		b.Fatal(err)
	}
	ix.Close()
	return re, re.Recovery()
}

// BenchmarkRecoveryReplay times the crash-recovery replay of 40 pending
// WAL records (1 000 triples) into a 2 000-triple index.
func BenchmarkRecoveryReplay(b *testing.B) {
	var replayNS, records float64
	for i := 0; i < b.N; i++ {
		ix, rs := crashedWALIndex(b)
		replayNS += float64(rs.Replay)
		records += float64(rs.Records)
		ix.Close()
	}
	b.ReportMetric(replayNS/float64(b.N), "replay-ns/op")
	b.ReportMetric(records/float64(b.N), "records/op")
}

// BenchmarkCompactPause compacts the tombstones those inserts left and
// reports the swap's write-lock hold, the one pause a compaction puts on
// queries.
func BenchmarkCompactPause(b *testing.B) {
	var pauseNS float64
	for i := 0; i < b.N; i++ {
		ix, _ := crashedWALIndex(b)
		cs, err := ix.Compact(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		pauseNS += float64(cs.Pause)
		ix.Close()
	}
	b.ReportMetric(pauseNS/float64(b.N), "pause-ns")
}

// BenchmarkCheckpoint times a checkpoint after one insert: the
// benchmark's 50 k-triple LUBM base (BenchmarkBuild's) under the
// benchmark thesaurus, then per op one 50-triple insert from the next
// 5 000 generated triples, outside the timer, and Checkpoint inside it.
// A run past 100 ops re-applies the batches from the start, which
// changes no path. It reports the checkpoint's ms/op and the metadata
// it leaves (meta_B).
func BenchmarkCheckpoint(b *testing.B) {
	const base, batch = 50000, 50
	ts := datasets.LUBM{}.Generate(55000, 1).Triples()
	g, err := rdf.NewGraphFromTriples(ts[:base])
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(filepath.Join(b.TempDir(), "bench"), g,
		Options{Thesaurus: textindex.BenchmarkThesaurus(), CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	stream := ts[base:]
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		at := i % (len(stream) / batch) * batch
		if err := ix.InsertTriples(stream[at : at+batch]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ix.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(metaPath(ix.base))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(fi.Size()), "meta_B")
}
