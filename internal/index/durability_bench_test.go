package index

import (
	"context"
	"path/filepath"
	"testing"

	"sama/internal/datasets"
)

// crashedWALIndex builds a 2 000-triple LUBM index with a WAL, inserts
// 40 batches of 25 unseen triples without ever checkpointing, and
// abandons the handle — every batch is pending in the log — returning
// the index reopened and recovered, with the replay statistics.
func crashedWALIndex(b *testing.B) (*Index, RecoveryStats) {
	b.Helper()
	const baseTriples, batchSize, batches = 2_000, 25, 40
	dir := b.TempDir()
	base := filepath.Join(dir, "ix")
	ix, err := Build(base, datasets.LUBM{}.Generate(baseTriples, 1), Options{
		WALDir: filepath.Join(dir, "wal"), CheckpointBytes: -1,
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
	re, err := Open(base, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := re.Recover(datasets.LUBM{}.Generate(baseTriples, 1))
	if err != nil {
		b.Fatal(err)
	}
	return re, rs
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

// BenchmarkCompactPause compacts the tombstones those inserts left, in
// steps of 64 paths, and reports the longest lock hold of the run.
func BenchmarkCompactPause(b *testing.B) {
	var maxPauseNS, steps float64
	for i := 0; i < b.N; i++ {
		ix, _ := crashedWALIndex(b)
		cs, err := ix.CompactIncremental(context.Background(), 64)
		if err != nil {
			b.Fatal(err)
		}
		maxPauseNS = max(maxPauseNS, float64(cs.MaxPause))
		steps += float64(cs.Batches)
		ix.Close()
	}
	b.ReportMetric(maxPauseNS, "max-pause-ns")
	b.ReportMetric(steps/float64(b.N), "steps/op")
}
