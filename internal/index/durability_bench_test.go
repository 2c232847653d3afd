package index

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// benchmarkBase builds the benchmark's 50 k-triple LUBM base
// (BenchmarkBuild's) under the benchmark thesaurus, with no automatic
// checkpoint, and returns it open with the next 5 000 generated triples
// in the 50-triple batches an op inserts: a run past 100 ops re-applies
// them from the start, which changes no path.
func benchmarkBase(b *testing.B) (*Index, [][]rdf.Triple) {
	b.Helper()
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
	b.Cleanup(func() { ix.Close() })
	var batches [][]rdf.Triple
	for at := base; at+batch <= len(ts); at += batch {
		batches = append(batches, ts[at:at+batch])
	}
	return ix, batches
}

// BenchmarkCompactPause times a compaction after one insert: the
// benchmark's 50 k base (see benchmarkBase), then per op one 50-triple
// insert outside the timer and Compact inside it. It reports the
// compaction's ms/op and allocations, and the swap's write-lock hold
// (pause-ns), the one pause a compaction puts on queries.
func BenchmarkCompactPause(b *testing.B) {
	ix, batches := benchmarkBase(b)
	var pauseNS float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		if err := ix.InsertTriples(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cs, err := ix.Compact(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		pauseNS += float64(cs.Pause)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(pauseNS/float64(b.N), "pause-ns")
}

// BenchmarkCheckpoint times a checkpoint after one insert: the
// benchmark's 50 k base (see benchmarkBase), then per op one 50-triple
// insert outside the timer and Checkpoint inside it. It reports the
// checkpoint's ms/op and the metadata it leaves (meta_B).
func BenchmarkCheckpoint(b *testing.B) {
	ix, batches := benchmarkBase(b)
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		if err := ix.InsertTriples(batches[i%len(batches)]); err != nil {
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

// BenchmarkOpen times Open of the benchmark's 50 k base (see
// benchmarkBase), each opened index closed again outside the timer. It
// reports Open's ms/op and the share of it the signature derivation
// takes (derive_share: KeySignatures over the opened label postings,
// timed again outside the timer).
func BenchmarkOpen(b *testing.B) {
	ix, _ := benchmarkBase(b)
	base := crashClone(b, ix.base)
	opts := Options{Thesaurus: textindex.BenchmarkThesaurus()}
	var derive time.Duration
	b.ResetTimer()
	for range b.N {
		re, err := Open(base, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		start := time.Now()
		if _, err := re.labels.KeySignatures(len(re.lens)); err != nil {
			b.Fatal(err)
		}
		derive += time.Since(start)
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	ms := float64(b.Elapsed().Nanoseconds()) / 1e6 / float64(b.N)
	b.ReportMetric(ms, "ms/op")
	b.ReportMetric(float64(derive.Nanoseconds())/1e6/float64(b.N)/ms, "derive_share")
}
