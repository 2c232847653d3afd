// Package storage implements the disk substrate the index is built on:
// a page file with fixed-size pages, an LRU buffer pool with cold/warm
// cache control, and a slotted-page record store for variable-length
// records of up to one page.
//
// The paper assumes “that the graph cannot fit in memory and can only be
// stored on disk” (§6.1) and stores its index in HyperGraphDB; this
// package provides the equivalent disk-resident behaviour: all record
// access goes through the buffer pool, so dropping the pool reproduces
// the cold-cache protocol of the Figure 6 experiments.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// PageID identifies a page within a PageFile. Page 0 is the file header.
type PageID uint32

// headerMagic identifies a page file.
var headerMagic = [8]byte{'S', 'A', 'M', 'A', 'P', 'G', 'F', '1'}

// ErrClosed is returned by operations on a closed file or pool.
var ErrClosed = errors.New("storage: closed")

// PageFile is a file of fixed-size pages. It is safe for concurrent use.
//
// A failed Sync poisons the file: after fsync fails, the kernel may
// have discarded the dirty pages it could not write, so "retry the
// sync" can report success without the data ever reaching the disk
// (the classic fsyncgate failure). Once poisoned, every Write, Sync,
// and Close returns the original sync error; the only way forward is
// to close and recover from the WAL.
type PageFile struct {
	mu      sync.Mutex
	f       *os.File
	npages  uint32 // including the header page
	closed  bool
	path    string
	syncErr error // sticky: set by the first failed Sync

	// syncHook, when set, replaces f.Sync. Tests use it to simulate a
	// failing fsync without a real dying disk.
	syncHook func() error
}

// CreatePageFile creates (truncating) a page file at path.
func CreatePageFile(path string) (*PageFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	pf := &PageFile{f: f, npages: 1, path: path}
	if err := pf.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// OpenPageFile opens an existing page file.
func OpenPageFile(path string) (*PageFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	var hdr [PageSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read header of %s: %w", path, err)
	}
	if [8]byte(hdr[:8]) != headerMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a page file", path)
	}
	npages := binary.LittleEndian.Uint32(hdr[8:12])
	if npages == 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has corrupt page count", path)
	}
	return &PageFile{f: f, npages: npages, path: path}, nil
}

func (pf *PageFile) writeHeader() error {
	var hdr [PageSize]byte
	copy(hdr[:8], headerMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], pf.npages)
	_, err := pf.f.WriteAt(hdr[:], 0)
	if err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	return nil
}

// Alloc appends a zeroed page and returns its ID.
func (pf *PageFile) Alloc() (PageID, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return 0, ErrClosed
	}
	if pf.syncErr != nil {
		return 0, pf.syncErr
	}
	id := PageID(pf.npages)
	var zero [PageSize]byte
	if _, err := pf.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: alloc page %d: %w", id, err)
	}
	pf.npages++
	return id, pf.writeHeader()
}

// Read fills buf (which must be PageSize long) with page id.
func (pf *PageFile) Read(id PageID, buf []byte) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if err := pf.check(id); err != nil {
		return err
	}
	if _, err := pf.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// Write stores buf (PageSize long) as page id.
func (pf *PageFile) Write(id PageID, buf []byte) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.syncErr != nil {
		return pf.syncErr
	}
	if err := pf.check(id); err != nil {
		return err
	}
	if _, err := pf.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

func (pf *PageFile) check(id PageID) error {
	if id == 0 {
		return fmt.Errorf("storage: page 0 is the file header")
	}
	if uint32(id) >= pf.npages {
		return fmt.Errorf("storage: page %d beyond end (%d pages)", id, pf.npages)
	}
	return nil
}

// NumPages returns the page count, header included.
func (pf *PageFile) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int(pf.npages)
}

// Size returns the file size in bytes.
func (pf *PageFile) Size() int64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int64(pf.npages) * PageSize
}

// Path returns the file path.
func (pf *PageFile) Path() string { return pf.path }

// Rename moves the file to path, which Path and the sync-poison errors
// name from then on; the open handle stays valid.
func (pf *PageFile) Rename(path string) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if err := os.Rename(pf.path, path); err != nil {
		return err
	}
	pf.path = path
	return nil
}

// Sync flushes the file to stable storage. A failure poisons the
// file — see the PageFile doc comment — and is returned again by
// every subsequent Write, Sync, and Close.
func (pf *PageFile) Sync() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.syncErr != nil {
		return pf.syncErr
	}
	sync := pf.f.Sync
	if pf.syncHook != nil {
		sync = pf.syncHook
	}
	if err := sync(); err != nil {
		pf.syncErr = fmt.Errorf("storage: sync %s poisoned: %w", pf.path, err)
		return pf.syncErr
	}
	return nil
}

// Close syncs and closes the file, surfacing the sync error if either
// this final sync or an earlier one failed. Close is idempotent: only
// the first call reports the error.
func (pf *PageFile) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil
	}
	pf.closed = true
	if pf.syncErr != nil {
		pf.f.Close()
		return pf.syncErr
	}
	sync := pf.f.Sync
	if pf.syncHook != nil {
		sync = pf.syncHook
	}
	if err := sync(); err != nil {
		pf.syncErr = fmt.Errorf("storage: sync %s poisoned: %w", pf.path, err)
		pf.f.Close()
		return pf.syncErr
	}
	return pf.f.Close()
}
