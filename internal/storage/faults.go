package storage

import (
	"errors"
	"fmt"
	"sync"
)

// PageIO is the page-granular I/O surface the buffer pool runs on.
// *PageFile is the production implementation; FaultInjector wraps any
// PageIO to exercise failure paths.
type PageIO interface {
	// Alloc appends a zeroed page and returns its ID.
	Alloc() (PageID, error)
	// Read fills buf (PageSize long) with page id.
	Read(id PageID, buf []byte) error
	// Write stores buf (PageSize long) as page id.
	Write(id PageID, buf []byte) error
	// Sync flushes to stable storage.
	Sync() error
}

// Fault error sentinels. Callers classify injected (and, by convention,
// real) I/O errors with errors.Is. The buffer pool treats them all
// alike: the operation that meets one fails.
var (
	// ErrTransient marks an I/O error that a later attempt of the same
	// operation may not meet (the storage equivalent of a flaky network
	// read). The pool does not retry it; the caller may, once the fault
	// has healed.
	ErrTransient = errors.New("transient I/O fault")
	// ErrPermanent marks an I/O error that will keep failing (bad
	// sector, truncated file). It is surfaced to the caller immediately.
	ErrPermanent = errors.New("permanent I/O fault")
	// ErrTornWrite marks a write that only partially reached the disk:
	// the page now holds a mix of new and stale bytes.
	ErrTornWrite = errors.New("torn write")
)

// Op classifies one page I/O for fault matching.
type Op int

const (
	// OpRead matches PageIO.Read calls.
	OpRead Op = iota
	// OpWrite matches PageIO.Write calls.
	OpWrite
	// OpSync matches PageIO.Sync calls (the Page field is ignored —
	// a sync covers the whole file).
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	default:
		return "read"
	}
}

// FaultKind selects the failure a Fault injects.
type FaultKind int

const (
	// Transient fails the operation without touching the page, with
	// ErrTransient: it heals after Times failures, so an attempt past
	// the fault's window succeeds.
	Transient FaultKind = iota
	// Permanent fails the operation without touching the page, forever
	// (unless Times bounds it).
	Permanent
	// Torn applies to writes only: the first TornSplit bytes of the
	// buffer reach the page, the rest keeps its previous content, and
	// the write reports ErrTornWrite.
	Torn
)

// TornSplit is the number of leading bytes a torn write persists.
const TornSplit = PageSize / 2

// Fault is one scripted failure. The zero value matches the first read
// of any page and fails it once, transiently.
type Fault struct {
	// Op selects reads or writes.
	Op Op
	// Kind selects the failure mode.
	Kind FaultKind
	// Page restricts the fault to one page. 0 (the header page, which
	// never travels through a pool) matches every page.
	Page PageID
	// AfterN arms the fault only after N matching operations have
	// passed through unharmed: AfterN=2 fails the 3rd matching I/O.
	AfterN uint64
	// Times bounds how many matching operations fail once armed.
	// 0 means 1 for Transient/Torn faults and forever for Permanent.
	Times int

	seen  uint64
	fired int
}

func (f *Fault) times() int {
	if f.Times > 0 {
		return f.Times
	}
	if f.Kind == Permanent {
		return -1 // unbounded
	}
	return 1
}

// match reports whether this operation should fail, updating the
// fault's counters.
func (f *Fault) match(op Op, id PageID) bool {
	if f.Op != op || (op != OpSync && f.Page != 0 && f.Page != id) {
		return false
	}
	seen := f.seen
	f.seen++
	if seen < f.AfterN {
		return false
	}
	if t := f.times(); t >= 0 && f.fired >= t {
		return false
	}
	f.fired++
	return true
}

// FaultInjector wraps a PageIO and injects scripted failures, for
// exercising the engine's degradation paths without real disk faults.
// It is safe for concurrent use.
type FaultInjector struct {
	mu     sync.Mutex
	inner  PageIO
	faults []*Fault
	reads  uint64
	writes uint64
	fired  uint64
}

// NewFaultInjector wraps inner with an (initially transparent)
// injector.
func NewFaultInjector(inner PageIO) *FaultInjector {
	return &FaultInjector{inner: inner}
}

// Inject adds one fault script. Faults are evaluated in insertion
// order; the first match fails the operation.
func (fi *FaultInjector) Inject(f Fault) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = append(fi.faults, &f)
}

// Clear removes every fault script; counters are retained.
func (fi *FaultInjector) Clear() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = nil
}

// Reads returns the number of Read calls observed.
func (fi *FaultInjector) Reads() uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.reads
}

// Writes returns the number of Write calls observed.
func (fi *FaultInjector) Writes() uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.writes
}

// Fired returns the number of operations failed so far.
func (fi *FaultInjector) Fired() uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.fired
}

// hit returns the first matching fault, or nil.
func (fi *FaultInjector) hit(op Op, id PageID) *Fault {
	for _, f := range fi.faults {
		if f.match(op, id) {
			fi.fired++
			return f
		}
	}
	return nil
}

// Alloc passes through to the wrapped PageIO.
func (fi *FaultInjector) Alloc() (PageID, error) { return fi.inner.Alloc() }

// Sync injects sync faults, else passes through. A Torn fault kind is
// meaningless for a sync and is treated as Transient.
func (fi *FaultInjector) Sync() error {
	fi.mu.Lock()
	f := fi.hit(OpSync, 0)
	fi.mu.Unlock()
	if f != nil {
		kind := f.Kind
		if kind == Torn {
			kind = Transient
		}
		return fmt.Errorf("storage: injected %s fault on sync: %w", kindName(kind), kindErr(kind))
	}
	return fi.inner.Sync()
}

// Read injects read faults, else passes through.
func (fi *FaultInjector) Read(id PageID, buf []byte) error {
	fi.mu.Lock()
	fi.reads++
	f := fi.hit(OpRead, id)
	fi.mu.Unlock()
	if f != nil {
		return fmt.Errorf("storage: injected %s fault reading page %d: %w",
			kindName(f.Kind), id, kindErr(f.Kind))
	}
	return fi.inner.Read(id, buf)
}

// Write injects write faults, else passes through. A Torn fault
// persists only the first TornSplit bytes of buf (the rest keeps the
// page's previous content) and reports ErrTornWrite.
func (fi *FaultInjector) Write(id PageID, buf []byte) error {
	fi.mu.Lock()
	fi.writes++
	f := fi.hit(OpWrite, id)
	fi.mu.Unlock()
	if f == nil {
		return fi.inner.Write(id, buf)
	}
	if f.Kind == Torn {
		var torn [PageSize]byte
		// Best effort: stale tail from the current page content.
		_ = fi.inner.Read(id, torn[:])
		copy(torn[:TornSplit], buf[:TornSplit])
		if err := fi.inner.Write(id, torn[:]); err != nil {
			return err
		}
		return fmt.Errorf("storage: injected torn write on page %d: %w", id, ErrTornWrite)
	}
	return fmt.Errorf("storage: injected %s fault writing page %d: %w",
		kindName(f.Kind), id, kindErr(f.Kind))
}

func kindName(k FaultKind) string {
	switch k {
	case Permanent:
		return "permanent"
	case Torn:
		return "torn-write"
	default:
		return "transient"
	}
}

func kindErr(k FaultKind) error {
	switch k {
	case Permanent:
		return ErrPermanent
	case Torn:
		return ErrTornWrite
	default:
		return ErrTransient
	}
}
