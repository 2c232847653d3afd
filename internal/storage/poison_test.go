package storage

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestPageFileSyncPoisoning covers the fsync discipline audit: a
// failed Sync must poison the file — no silent retry that could
// "succeed" after the kernel dropped the dirty pages — and the
// original error must keep surfacing from Write, Sync, and Close.
func TestPageFileSyncPoisoning(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := pf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	if err := pf.Write(id, buf[:]); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("device error")
	fail := true
	pf.syncHook = func() error {
		if fail {
			return boom
		}
		return nil
	}
	if err := pf.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync: err=%v, want the injected device error", err)
	}

	// The disk "recovers", but the file stays poisoned: retrying the
	// sync must NOT report success for data that may never have landed.
	fail = false
	if err := pf.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after poison: err=%v, want the original sync error", err)
	}
	if err := pf.Write(id, buf[:]); !errors.Is(err, boom) {
		t.Fatalf("Write after poison: err=%v, want the original sync error", err)
	}
	if _, err := pf.Alloc(); !errors.Is(err, boom) {
		t.Fatalf("Alloc after poison: err=%v, want the original sync error", err)
	}
	// Close surfaces the poison instead of dropping it.
	if err := pf.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after poison: err=%v, want the original sync error", err)
	}
	// Idempotent: the second Close already reported it.
	if err := pf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Reads of a poisoned file still work — recovery needs them.
	if err := pf.Read(id, buf[:]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close: err=%v, want ErrClosed", err)
	}
}

// TestPageFileCloseSurfacesSyncError covers the case where the very
// first failing sync is the one Close issues.
func TestPageFileCloseSurfacesSyncError(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("device error")
	pf.syncHook = func() error { return boom }
	if err := pf.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close: err=%v, want the injected device error", err)
	}
}

// TestFaultInjectorSync exercises the OpSync fault scripting used by
// the checkpoint failure tests.
func TestFaultInjectorSync(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	fi := NewFaultInjector(pf)
	fi.Inject(Fault{Op: OpSync, Kind: Transient, AfterN: 1})

	if err := fi.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := fi.Sync(); !errors.Is(err, ErrTransient) {
		t.Fatalf("second sync: err=%v, want ErrTransient", err)
	}
	if err := fi.Sync(); err != nil {
		t.Fatalf("third sync (fault exhausted): %v", err)
	}
	if fi.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", fi.Fired())
	}
}

// TestRecordStoreSealCurrentPage: after sealing, appends land on a
// fresh page and earlier IDs stay readable.
func TestRecordStoreSealCurrentPage(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(pf, 8)
	defer pool.Close()
	rs := NewRecordStore(pool, nil, 0)

	r1, err := rs.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	rs.Seal(rs.Len())
	r2, err := rs.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := locate(rs, r1)
	if p2, _ := locate(rs, r2); p1 == p2 {
		t.Fatalf("append after seal landed on the same page %d", p1)
	}
	for _, c := range []struct {
		rid  uint32
		want string
	}{{r1, "first"}, {r2, "second"}} {
		got, err := readOne(rs, c.rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Fatalf("read %v = %q, want %q", c.rid, got, c.want)
		}
	}
}
