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
	"strings"
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

func TestWALCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	payload := bytes.Repeat([]byte("x"), 64)
	var last uint64
	for i := 0; i < 20; i++ {
		lsn, err := w.Append(payload)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}

	// A checkpoint that would discard unapplied records is refused and
	// leaves the file as it was.
	path := filepath.Join(dir, walFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(last - 1); err == nil {
		t.Fatal("Checkpoint(applied < LastLSN) succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused checkpoint touched the log (err=%v)", err)
	}
	if got := collectWAL(t, w, 0); len(got) != int(last) {
		t.Fatalf("after a refused checkpoint: %d records, want %d", len(got), last)
	}

	// Checkpoint everything: the whole log is discarded.
	if err := w.Checkpoint(last); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := collectWAL(t, w, 0); len(got) != 0 {
		t.Fatalf("after checkpoint: %d records remain", len(got))
	}
	if st := w.Stats(); st.Bytes != walHdrSize || st.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %d bytes and %d checkpoints, want %d and 1", st.Bytes, st.Checkpoints, walHdrSize)
	}
	// LSNs keep increasing across the checkpoint.
	if lsn, err := w.Append([]byte("post")); err != nil || lsn != last+1 {
		t.Fatalf("post-checkpoint append: lsn=%d err=%v, want %d", lsn, err, last+1)
	}
	w.Close()

	// ... and across a reopen.
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	if got := collectWAL(t, w2, 0); len(got) != 1 || got[last+1] == nil {
		t.Fatalf("after reopen: replayed %d records, want only LSN %d", len(got), last+1)
	}
	if lsn, err := w2.Append([]byte("post2")); err != nil || lsn != last+2 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, last+2)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("WAL directory holds %v, want only %s", names, walFile)
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

			seg := filepath.Join(dir, walFile)
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

// TestWALCorruptionBeforeTailFailsOpen: a damaged record with a
// well-formed record after it is not a torn tail: the records after it
// were acknowledged, so the open fails and leaves the file as it was.
func TestWALCorruptionBeforeTailFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	// Flip one payload byte of LSN 3.
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recSize := walRecHdrSize + len("rec-0")
	data[walHdrSize+2*recSize+walRecHdrSize] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrWALCorrupt) {
		if err == nil {
			t.Logf("replayed %d records, last LSN %d", len(collectWAL(t, w, 0)), w.LastLSN())
			w.Close()
		}
		t.Fatalf("open over a damaged record 3 of 10: err=%v, want ErrWALCorrupt", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the failed open changed the log (err=%v)", err)
	}
}

// TestWALTornHeader: a header that is short or fails its check is a
// torn create or rewrite when nothing follows it — the open replaces
// it — and corruption when anything does. A temporary a crash left
// mid-rewrite is removed.
func TestWALTornHeader(t *testing.T) {
	valid := encodeLog(7, []byte("rec"))
	bad := slices.Clone(valid)
	bad[walHdrSize-1] ^= 1 // the header checksum
	for _, c := range []struct {
		name    string
		log     []byte
		corrupt bool
	}{
		{"empty", nil, false},
		{"short", valid[:11], false},
		{"bad-checksum", bad[:walHdrSize], false},
		{"bad-checksum-then-record", bad, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, walFile)
			if err := os.WriteFile(path, c.log, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, walTmp), valid[:5], 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenWAL(dir, WALOptions{MinNextLSN: 5})
			if c.corrupt {
				if !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("OpenWAL: err=%v, want ErrWALCorrupt", err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, c.log) {
					t.Fatal("the failed open changed the log")
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			defer w.Close()
			if !w.Stats().TornTailRepaired {
				t.Error("torn header not reported as repaired")
			}
			if _, err := os.Stat(filepath.Join(dir, walTmp)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("stray temporary survived the open: %v", err)
			}
			if lsn, err := w.Append([]byte("a")); err != nil || lsn != 5 {
				t.Fatalf("append after repair: lsn=%d err=%v, want 5", lsn, err)
			}
		})
	}
}

// TestWALRefusesSegmentedLayout: a directory holding an earlier build's
// segment files fails the open, naming one, and is left alone.
func TestWALRefusesSegmentedLayout(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-00000001.log")
	old := encodeLog(1, []byte("unapplied"))
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir, WALOptions{})
	if err == nil {
		w.Close()
		t.Fatal("OpenWAL over a segmented log succeeded")
	}
	if !strings.Contains(err.Error(), seg) {
		t.Errorf("error %q does not name %s", err, seg)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); !slices.Equal(names, []string{seg}) {
		t.Errorf("WAL directory holds %v after the refused open, want only %s", names, seg)
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, old) {
		t.Error("the refused open changed the segment file")
	}
}

// TestWALReplayStopsAtLastLSN: an append that fails after its frame was
// fully written is not acknowledged, so Replay never streams it.
func TestWALReplayStopsAtLastLSN(t *testing.T) {
	fail := false
	w := openTestWAL(t, t.TempDir(), WALOptions{SyncHook: func() error {
		if fail {
			return errors.New("injected sync failure")
		}
		return nil
	}})
	defer w.Close()
	if lsn, err := w.Append([]byte("one")); err != nil || lsn != 1 {
		t.Fatalf("first append: lsn=%d err=%v", lsn, err)
	}
	fail = true
	if _, err := w.Append([]byte("two")); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("second append: err=%v, want ErrWALPoisoned", err)
	}
	if got := collectWAL(t, w, 0); len(got) != 1 || got[1] == nil {
		t.Fatalf("Replay(0) streamed %d records, want only LSN 1", len(got))
	}
}

func TestWALMinNextLSN(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{MinNextLSN: 100})
	if lsn, err := w.Append([]byte("a")); err != nil || lsn != 100 {
		t.Fatalf("lsn=%d err=%v, want 100", lsn, err)
	}
	w.Close()

	// A log whose records all lie below the floor restarts at the floor,
	// and what is appended there survives a reopen.
	w = openTestWAL(t, dir, WALOptions{MinNextLSN: 200})
	if lsn, err := w.Append([]byte("b")); err != nil || lsn != 200 {
		t.Fatalf("lsn=%d err=%v, want 200", lsn, err)
	}
	w.Close()
	w = openTestWAL(t, dir, WALOptions{})
	defer w.Close()
	if got := collectWAL(t, w, 0); len(got) != 1 || !bytes.Equal(got[200], []byte("b")) {
		t.Fatalf("after reopen: replayed %d records, want only LSN 200", len(got))
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
	// Close the log file behind the WAL's back: the next commit's
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

// appendFrame frames payload at lsn the way Append does.
func appendFrame(log []byte, lsn uint64, payload []byte) []byte {
	l := binary.LittleEndian.AppendUint64(nil, lsn)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	log = append(log, l...)
	log = binary.LittleEndian.AppendUint32(log, crc32.Update(crc32.ChecksumIEEE(l), crc32.IEEETable, payload))
	return append(log, payload...)
}

// encodeLog is a log opening at first and holding payloads at
// consecutive LSNs.
func encodeLog(first uint64, payloads ...[]byte) []byte {
	log := binary.LittleEndian.AppendUint64(walMagic[:], first)
	log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(log[8:16]))
	for i, p := range payloads {
		log = appendFrame(log, first+uint64(i), p)
	}
	return log
}

// walFrames reads log by the format's definition: a header (the magic,
// a first LSN other than 0, the header CRC), then frames whose length
// is at most walMaxRecord, whose LSNs run on from the first LSN and
// whose CRC holds. It returns the payloads of the longest well-formed
// prefix and the LSN a record after them would take (0 if the header is
// bad); whole reports that those frames end exactly where log does, and
// next that a well-formed frame carrying the LSN after that one starts
// where the first bad frame's declared length ends.
func walFrames(log []byte) (recs [][]byte, lsn uint64, whole, next bool) {
	if len(log) < walHdrSize || [8]byte(log[:8]) != walMagic {
		return nil, 0, false, false
	}
	lsn = binary.LittleEndian.Uint64(log[8:16])
	if lsn == 0 || crc32.ChecksumIEEE(log[8:16]) != binary.LittleEndian.Uint32(log[16:20]) {
		return nil, 0, false, false
	}
	// frame returns the payload of the frame rest starts with and the
	// length its header declares, or ok=false if it is not well-formed.
	frame := func(rest []byte, lsn uint64) (p []byte, n uint64, ok bool) {
		if len(rest) < walRecHdrSize {
			return nil, 0, false
		}
		n = uint64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > walMaxRecord || n > uint64(len(rest)-walRecHdrSize) || binary.LittleEndian.Uint64(rest[4:12]) != lsn {
			return nil, n, false
		}
		p = rest[walRecHdrSize : walRecHdrSize+n]
		return p, n, crc32.Update(crc32.ChecksumIEEE(rest[4:12]), crc32.IEEETable, p) == binary.LittleEndian.Uint32(rest[12:16])
	}
	rest := log[walHdrSize:]
	for len(rest) > 0 {
		p, n, ok := frame(rest, lsn)
		if !ok {
			if len(rest) >= walRecHdrSize && walRecHdrSize+n <= uint64(len(rest)) {
				_, _, next = frame(rest[walRecHdrSize+n:], lsn+1)
			}
			return recs, lsn, false, next
		}
		recs = append(recs, p)
		lsn++
		rest = rest[walRecHdrSize+n:]
	}
	return recs, lsn, true, false
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

// FuzzOpenWAL writes the input as the log file, followed, when next is
// set, by one well-formed frame: it carries the LSN after the input's
// well-formed prefix if the input is whole, and the one after the first
// bad frame's otherwise, so it can make that frame damage rather than a
// tear. walFrames judges the result. A bad header must fail the open
// with ErrWALCorrupt if anything follows it, and otherwise open to an
// empty log; damage with a well-formed next frame after it must fail
// the open with ErrWALCorrupt and leave the file as it was; any other
// damage is a torn tail: OpenWAL succeeds, Replay returns exactly the
// well-formed prefix, a reopen returns it again, and a record appended
// after opening survives the next reopen. The checked-in corpus is a
// valid three-record log and one with a flipped payload byte in its
// last record, each both ways, every cut inside the valid one's last
// record, and a flipped byte in the middle record's payload (corrupt)
// and in the last record's LSN (torn).
func FuzzOpenWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte, next bool) {
		if next {
			_, lsn, whole, _ := walFrames(log)
			if !whole {
				lsn++
			}
			log = appendFrame(slices.Clone(log), lsn, []byte("next frame"))
		}
		dir := t.TempDir()
		path := filepath.Join(dir, walFile)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		want, lsn, whole, corrupt := walFrames(log)
		if lsn == 0 { // bad header
			corrupt = len(log) > walHdrSize
		}
		open := func() *WAL {
			t.Helper()
			w, err := OpenWAL(dir, WALOptions{NoSync: true})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			return w
		}
		if corrupt {
			w, err := OpenWAL(dir, WALOptions{NoSync: true})
			if err == nil {
				w.Close()
			}
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("OpenWAL over damage before the tail: err = %v, want ErrWALCorrupt", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
				t.Fatalf("the failed open changed the log (err=%v)", err)
			}
			return
		}
		w := open()
		if got := replayAll(t, w); !equalRecords(got, want) {
			t.Fatalf("replayed %q, want the well-formed prefix %q", got, want)
		}
		if torn := w.Stats().TornTailRepaired; torn == whole {
			t.Fatalf("TornTailRepaired = %v for a log whose frames end where it does: %v", torn, whole)
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
