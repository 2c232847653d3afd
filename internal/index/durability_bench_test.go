package index

import (
	"context"
	"path/filepath"
	"testing"

	"sama/internal/datasets"
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
