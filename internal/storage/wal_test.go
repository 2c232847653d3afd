package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func openTestWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func collectWAL(t *testing.T, w *WAL, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	prev := uint64(0)
	err := w.Replay(from, func(lsn uint64, payload []byte) error {
		if lsn <= prev {
			t.Fatalf("replay out of order: %d after %d", lsn, prev)
		}
		prev = lsn
		got[lsn] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	want := map[uint64][]byte{}
	for i := 0; i < 50; i++ {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		lsn, err := w.Append(payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d: lsn = %d, want %d", i, lsn, i+1)
		}
		want[lsn] = payload
	}
	got := collectWAL(t, w, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for lsn, p := range want {
		if !bytes.Equal(got[lsn], p) {
			t.Fatalf("lsn %d: payload %q, want %q", lsn, got[lsn], p)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: same records survive, next LSN continues the sequence.
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	got = collectWAL(t, w2, 0)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
	if lsn, err := w2.Append([]byte("after")); err != nil || lsn != 51 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want 51", lsn, err)
	}
	// Partial replay starts at the requested LSN.
	part := collectWAL(t, w2, 40)
	if len(part) != 12 { // 40..51
		t.Fatalf("partial replay: %d records, want 12", len(part))
	}
}

func TestWALSegmentRotationAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Small segments so a handful of records rotates several times.
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 256})
	payload := bytes.Repeat([]byte("x"), 64)
	var last uint64
	for i := 0; i < 20; i++ {
		lsn, err := w.Append(payload)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to leave >=3 segments, got %d", st.Segments)
	}
	if st.Rotations == 0 {
		t.Fatal("expected rotations > 0")
	}

	// Checkpoint halfway: early segments disappear, later records survive.
	if err := w.Checkpoint(last / 2); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got := collectWAL(t, w, 0)
	for lsn := last/2 + 1; lsn <= last; lsn++ {
		if got[lsn] == nil {
			t.Fatalf("lsn %d dropped by checkpoint", lsn)
		}
	}

	// Checkpoint everything: the log shrinks to one empty segment.
	if err := w.Checkpoint(last); err != nil {
		t.Fatalf("Checkpoint(all): %v", err)
	}
	if got := collectWAL(t, w, 0); len(got) != 0 {
		t.Fatalf("after full checkpoint: %d records remain", len(got))
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("after full checkpoint: %d segments, want 1", st.Segments)
	}
	// LSNs keep increasing across the checkpoint.
	if lsn, err := w.Append([]byte("post")); err != nil || lsn != last+1 {
		t.Fatalf("post-checkpoint append: lsn=%d err=%v, want %d", lsn, err, last+1)
	}
	w.Close()

	// Reopen after full checkpoint: LSN continuity preserved.
	w2 := openTestWAL(t, dir, WALOptions{SegmentBytes: 256})
	defer w2.Close()
	if lsn, err := w2.Append([]byte("post2")); err != nil || lsn != last+2 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, last+2)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int64 // bytes to keep of the final record (header+payload)
	}{
		{"mid-header", 7},
		{"mid-payload", walRecHdrSize + 3},
		{"corrupt-crc", -1}, // flip a payload byte instead of truncating
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, WALOptions{})
			for i := 0; i < 10; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			w.Close()

			seg := filepath.Join(dir, walSegName(1))
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			recSize := int64(walRecHdrSize + len("rec-0"))
			if cut.bytes >= 0 {
				// Tear the last record: keep only cut.bytes of it.
				if err := os.Truncate(seg, info.Size()-recSize+cut.bytes); err != nil {
					t.Fatal(err)
				}
			} else {
				// Flip one byte in the last record's payload.
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xff
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			w2 := openTestWAL(t, dir, WALOptions{})
			defer w2.Close()
			if st := w2.Stats(); !st.TornTailRepaired {
				t.Fatal("torn tail not reported as repaired")
			}
			got := collectWAL(t, w2, 0)
			if len(got) != 9 {
				t.Fatalf("replayed %d records after tear, want 9", len(got))
			}
			if got[10] != nil {
				t.Fatal("torn record 10 was replayed")
			}
			// The tail is clean again: the next append lands and survives.
			lsn, err := w2.Append([]byte("fresh"))
			if err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if lsn != 10 {
				t.Fatalf("append after repair: lsn=%d, want 10 (torn LSN reissued)", lsn)
			}
		})
	}
}

func TestWALCorruptionBeforeTailFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 128})
	payload := bytes.Repeat([]byte("y"), 64)
	for i := 0; i < 8; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.Stats().Segments < 2 {
		t.Fatal("test needs >= 2 segments")
	}
	w.Close()

	// Damage the FIRST segment: this is not a torn tail, it is data loss.
	seg := filepath.Join(dir, walSegName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[walSegHdrSize+walRecHdrSize] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open over non-tail corruption: err=%v, want ErrWALCorrupt", err)
	}
}

func TestWALMinNextLSN(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{MinNextLSN: 100})
	defer w.Close()
	if lsn, err := w.Append([]byte("a")); err != nil || lsn != 100 {
		t.Fatalf("lsn=%d err=%v, want 100", lsn, err)
	}
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(1); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := collectWAL(t, w, 0); len(got) != 0 {
		t.Fatalf("after reset: %d records remain", len(got))
	}
	if lsn, err := w.Append([]byte("y")); err != nil || lsn != 1 {
		t.Fatalf("append after reset: lsn=%d err=%v, want 1", lsn, err)
	}
}

func TestWALPoisonedAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Close the segment file behind the WAL's back: the next commit's
	// write/sync fails like a dying disk would.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	if _, err := w.Append([]byte("boom")); err == nil {
		t.Fatal("append over closed file succeeded")
	}
	// Poisoned: every later append fails fast with ErrWALPoisoned.
	if _, err := w.Append([]byte("after")); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("append after poison: err=%v, want ErrWALPoisoned", err)
	}
	if err := w.Checkpoint(1); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("checkpoint after poison: err=%v, want ErrWALPoisoned", err)
	}
}

// encodeSegment is a segment file opening at first and holding payloads
// at consecutive LSNs, framed the way Append frames them.
func encodeSegment(first uint64, payloads ...[]byte) []byte {
	seg := binary.LittleEndian.AppendUint64(walMagic[:], first)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg[8:16]))
	for i, p := range payloads {
		lsn := binary.LittleEndian.AppendUint64(nil, first+uint64(i))
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(p)))
		seg = append(seg, lsn...)
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Update(crc32.ChecksumIEEE(lsn), crc32.IEEETable, p))
		seg = append(seg, p...)
	}
	return seg
}

// walFrames reads seg by the segment format's definition: the magic, a
// first LSN other than 0 under the header CRC, then frames whose length
// is at most walMaxRecord, whose LSNs run on from the first LSN and
// whose CRC holds. It returns the payloads of the longest well-formed
// prefix, the LSN a record after them would take, and whether those
// frames end exactly where seg does.
func walFrames(seg []byte) (recs [][]byte, next uint64, whole bool) {
	if len(seg) < walSegHdrSize || [8]byte(seg[:8]) != walMagic {
		return nil, 0, false
	}
	next = binary.LittleEndian.Uint64(seg[8:16])
	if next == 0 || crc32.ChecksumIEEE(seg[8:16]) != binary.LittleEndian.Uint32(seg[16:20]) {
		return nil, 0, false
	}
	rest := seg[walSegHdrSize:]
	for len(rest) >= walRecHdrSize {
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > walMaxRecord || uint64(n) > uint64(len(rest)-walRecHdrSize) ||
			binary.LittleEndian.Uint64(rest[4:12]) != next {
			return recs, next, false
		}
		p := rest[walRecHdrSize : walRecHdrSize+int(n)]
		if crc32.Update(crc32.ChecksumIEEE(rest[4:12]), crc32.IEEETable, p) != binary.LittleEndian.Uint32(rest[12:16]) {
			return recs, next, false
		}
		recs = append(recs, p)
		next++
		rest = rest[walRecHdrSize+int(n):]
	}
	return recs, next, len(rest) == 0
}

// replayAll returns every record Replay(0) streams, in order, failing
// when two consecutive LSNs are not adjacent.
func replayAll(t *testing.T, w *WAL) [][]byte {
	t.Helper()
	var got [][]byte
	var prev uint64
	err := w.Replay(0, func(lsn uint64, payload []byte) error {
		if len(got) > 0 && lsn != prev+1 {
			t.Fatalf("replay jumped from LSN %d to %d", prev, lsn)
		}
		prev = lsn
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func equalRecords(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// FuzzOpenWAL writes the input as the log's first segment. Alone, it is
// the newest segment, so any damage is a torn tail: OpenWAL succeeds,
// Replay returns exactly the longest well-formed prefix walFrames finds,
// a reopen returns it again, and a record appended after opening
// survives the next reopen. Followed by a valid second segment (next
// set), the input is an older segment, so anything short of wholly
// well-formed must fail the open with ErrWALCorrupt. The checked-in
// corpus is a valid three-record segment and one with a flipped payload
// byte, each both ways, and every cut inside the valid one's last
// record, alone.
func FuzzOpenWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte, next bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSegName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want, nextLSN, whole := walFrames(seg)
		open := func() *WAL {
			t.Helper()
			w, err := OpenWAL(dir, WALOptions{NoSync: true})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			return w
		}
		if next {
			tail := []byte("second segment")
			if err := os.WriteFile(filepath.Join(dir, walSegName(2)), encodeSegment(nextLSN, tail), 0o644); err != nil {
				t.Fatal(err)
			}
			if !whole {
				w, err := OpenWAL(dir, WALOptions{NoSync: true})
				if err == nil {
					w.Close()
				}
				if !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("OpenWAL over a damaged older segment: err = %v, want ErrWALCorrupt", err)
				}
				return
			}
			w := open()
			defer w.Close()
			if got := replayAll(t, w); !equalRecords(got, append(want, tail)) {
				t.Fatalf("replayed %q, want %q", got, append(want, tail))
			}
			return
		}
		w := open()
		if got := replayAll(t, w); !equalRecords(got, want) {
			t.Fatalf("replayed %q, want the well-formed prefix %q", got, want)
		}
		w.Close()
		w = open()
		if got := replayAll(t, w); !equalRecords(got, want) {
			t.Fatalf("reopened: replayed %q, want %q", got, want)
		}
		appended := []byte("appended")
		if _, err := w.Append(appended); err != nil {
			t.Fatalf("Append: %v", err)
		}
		w.Close()
		w = open()
		defer w.Close()
		if got := replayAll(t, w); !equalRecords(got, append(want, appended)) {
			t.Fatalf("after an append and a reopen: replayed %q, want %q", got, append(want, appended))
		}
	})
}
