package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func newFaultyPool(t *testing.T, capacity int) (*FaultInjector, *BufferPool) {
	t.Helper()
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "faulty.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	fi := NewFaultInjector(pf)
	bp := NewBufferPool(fi, capacity)
	bp.SetRetryPolicy(3, 0) // no backoff sleep in tests
	return fi, bp
}

func TestFaultInjectorTransientReadIsRetried(t *testing.T) {
	fi, bp := newFaultyPool(t, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	copy(page[:], "payload")
	if err := putPage(bp, id, page[:]); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCache(); err != nil { // force the next read to hit the disk
		t.Fatal(err)
	}
	fi.Inject(Fault{Op: OpRead, Kind: Transient}) // fail the next read once

	var got [PageSize]byte
	if err := getPage(bp, id, got[:]); err != nil {
		t.Fatalf("read after transient fault: %v", err)
	}
	if !bytes.Equal(got[:7], []byte("payload")) {
		t.Errorf("page content lost across retry: %q", got[:7])
	}
	if r := bp.Stats().Retries; r == 0 {
		t.Error("expected Retries > 0 after a transient fault")
	}
	if fi.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", fi.Fired())
	}
}

func TestFaultInjectorTransientBeyondRetriesSurfaces(t *testing.T) {
	fi, bp := newFaultyPool(t, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	// More consecutive failures than the 3-attempt retry budget.
	fi.Inject(Fault{Op: OpRead, Kind: Transient, Times: 10})

	var got [PageSize]byte
	err = getPage(bp, id, got[:])
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient after retries exhausted", err)
	}
}

func TestFaultInjectorPermanentReadNamesPage(t *testing.T) {
	fi, bp := newFaultyPool(t, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(Fault{Op: OpRead, Kind: Permanent, Page: id})

	var got [PageSize]byte
	err = getPage(bp, id, got[:])
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if !strings.Contains(err.Error(), "page 1") {
		t.Errorf("error %q does not name the page", err)
	}
	// Permanent faults keep failing; retries must not absorb them.
	if err := getPage(bp, id, got[:]); !errors.Is(err, ErrPermanent) {
		t.Fatalf("second read = %v, want ErrPermanent", err)
	}
}

func TestFaultInjectorFailsNthIO(t *testing.T) {
	fi, bp := newFaultyPool(t, 8)
	bp.SetRetryPolicy(0, 0) // surface every fault
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := bp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	// Arm after 1 read: the 2nd read fails, the 1st and 3rd succeed.
	fi.Inject(Fault{Op: OpRead, Kind: Transient, AfterN: 1})

	var buf [PageSize]byte
	if err := getPage(bp, ids[0], buf[:]); err != nil {
		t.Fatalf("1st read: %v", err)
	}
	if err := getPage(bp, ids[1], buf[:]); !errors.Is(err, ErrTransient) {
		t.Fatalf("2nd read = %v, want ErrTransient", err)
	}
	if err := getPage(bp, ids[2], buf[:]); err != nil {
		t.Fatalf("3rd read: %v", err)
	}
}

func TestFaultInjectorTornWrite(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "torn.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	fi := NewFaultInjector(pf)
	id, err := fi.Alloc()
	if err != nil {
		t.Fatal(err)
	}

	var old [PageSize]byte
	for i := range old {
		old[i] = 0xAA
	}
	if err := fi.Write(id, old[:]); err != nil {
		t.Fatal(err)
	}

	fi.Inject(Fault{Op: OpWrite, Kind: Torn, Page: id})
	var fresh [PageSize]byte
	for i := range fresh {
		fresh[i] = 0xBB
	}
	if err := fi.Write(id, fresh[:]); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn write err = %v, want ErrTornWrite", err)
	}

	var got [PageSize]byte
	if err := fi.Read(id, got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB || got[TornSplit-1] != 0xBB {
		t.Errorf("head of torn page = %x..%x, want new bytes", got[0], got[TornSplit-1])
	}
	if got[TornSplit] != 0xAA || got[PageSize-1] != 0xAA {
		t.Errorf("tail of torn page = %x..%x, want stale bytes", got[TornSplit], got[PageSize-1])
	}
}

func TestFaultInjectorCountersAndClear(t *testing.T) {
	fi, bp := newFaultyPool(t, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(Fault{Op: OpRead, Kind: Permanent})
	fi.Clear()
	var buf [PageSize]byte
	if err := getPage(bp, id, buf[:]); err != nil {
		t.Fatalf("read after Clear: %v", err)
	}
	if fi.Reads() == 0 {
		t.Error("Reads counter not advancing")
	}
	if fi.Fired() != 0 {
		t.Errorf("Fired = %d after Clear, want 0", fi.Fired())
	}
}
