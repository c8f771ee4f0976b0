// Package store gives the staging cache real bytes: a directory-backed
// object store that materializes staged files on local disk, verifies them
// with CRC-32 checksums, and deletes them on eviction. The policies and
// simulators in this repository track residency only; an SRM deployment
// wires a Store underneath so that "file f is resident" means an actual,
// checksummed file exists under the cache directory — the staging disk of
// §1.1 made concrete.
//
// Sources abstract where bytes come from (an MSS mover, HTTP, another
// site); FetchFunc adapts any reader-producing function.
package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fbcache/internal/bundle"
)

// Source produces the content of a file, e.g. by reading from a mass
// storage system.
type Source interface {
	// Open returns a reader for the file's content. The caller closes it.
	Open(f bundle.FileID) (io.ReadCloser, error)
}

// FetchFunc adapts a function to the Source interface.
type FetchFunc func(f bundle.FileID) (io.ReadCloser, error)

// Open implements Source.
func (fn FetchFunc) Open(f bundle.FileID) (io.ReadCloser, error) { return fn(f) }

// Store is a directory-backed object store. It is safe for concurrent use;
// concurrent stages of the same file are serialized per file.
//
// Every Stage and Remove carries a generation (Gen), so callers may decide
// what a file should become in one order and move its bytes in another: an
// operation whose generation is older than the one already applied to the
// file is stale and does nothing. Stamp hands out a file's generations;
// callers that never stamp pass 0 and get plain idempotent stage/remove.
type Store struct {
	dir    string
	source Source

	mu    sync.Mutex
	files map[bundle.FileID]*entry // guarded by mu
}

// Gen orders the operations on one file: a later intent gets a larger
// generation. The zero Gen precedes every stamped one.
type Gen uint64

type entry struct {
	// intent is the file's latest stamped generation. It is atomic so that
	// stamping never waits behind the file's I/O under mu.
	intent atomic.Uint64

	mu       sync.Mutex  // serializes stage/remove of one file
	path     string      // guarded by mu
	gen      Gen         // guarded by mu; generation of the last applied Stage or Remove
	size     bundle.Size // guarded by mu
	checksum uint32      // guarded by mu
	present  bool        // guarded by mu
}

// New creates (or reuses) a store rooted at dir, fetching misses from
// source.
func New(dir string, source Source) (*Store, error) {
	if source == nil {
		return nil, fmt.Errorf("store: nil source")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, source: source, files: make(map[bundle.FileID]*entry)}, nil
}

// Dir reports the cache directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryFor(f bundle.FileID) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.files[f]
	if !ok {
		e = &entry{path: filepath.Join(s.dir, fmt.Sprintf("f%08d.dat", f))}
		s.files[f] = e
	}
	return e
}

// Stamp records a new intent for f — it will be staged or removed — and
// returns the generation the matching Stage or Remove must carry. It takes
// only the store's map lock, never the file's, so it is cheap to call while
// holding a caller-side lock.
func (s *Store) Stamp(f bundle.FileID) Gen {
	return Gen(s.entryFor(f).intent.Add(1))
}

// Intent reports f's latest stamped generation (0 if never stamped): the
// generation a reader of f's current content should Stage it at.
func (s *Store) Intent(f bundle.FileID) Gen {
	return Gen(s.entryFor(f).intent.Load())
}

// Stage brings f to generation gen and returns its size and checksum. If f
// is present at gen, or a newer generation has already been applied, it
// does nothing (returning zeros when that newer generation removed f).
// Otherwise — f absent, or present from an older generation — it fetches f
// from the source again, so every generation's load reads the source
// exactly once whatever order the operations arrive in. Content is written
// to a temp file and renamed, so crashes never leave a half-staged file
// under the final name.
func (s *Store) Stage(f bundle.FileID, gen Gen) (bundle.Size, uint32, error) {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen > gen || (e.gen == gen && e.present) {
		if !e.present {
			return 0, 0, nil
		}
		return e.size, e.checksum, nil
	}
	rc, err := s.source.Open(f)
	if err != nil {
		return 0, 0, fmt.Errorf("store: open source for %d: %w", f, err)
	}
	defer rc.Close()

	tmp, err := os.CreateTemp(s.dir, "staging-*")
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	n, sum, err := copyCRC(tmp, rc)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), e.path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("store: stage %d: %w", f, err)
	}
	e.gen = gen
	e.size = bundle.Size(n)
	e.checksum = sum
	e.present = true
	return e.size, e.checksum, nil
}

// copyBufs holds the buffers Stage and Verify copy through. io.Copy would
// allocate a fresh 32 KB buffer per file: neither a byte source nor an
// *os.File writing to a regular file offers WriterTo/ReaderFrom here.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// copyCRC copies src to dst through one pooled buffer that feeds both the
// writer and the CRC-32 (IEEE), returning the bytes copied and their sum.
func copyCRC(dst io.Writer, src io.Reader) (n int64, sum uint32, err error) {
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		nr, rerr := src.Read(buf)
		if nr > 0 {
			sum = crc32.Update(sum, crc32.IEEETable, buf[:nr])
			nw, werr := dst.Write(buf[:nr])
			n += int64(nw)
			if werr == nil && nw < nr {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				return n, sum, werr
			}
		}
		if rerr == io.EOF {
			return n, sum, nil
		}
		if rerr != nil {
			return n, sum, rerr
		}
	}
}

// Contains reports whether f is materialized.
func (s *Store) Contains(f bundle.FileID) bool {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.present
}

// Open returns a reader over the staged content of f.
func (s *Store) Open(f bundle.FileID) (io.ReadCloser, error) {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.present {
		return nil, fmt.Errorf("store: file %d not staged", f)
	}
	return os.Open(e.path)
}

// Verify re-reads f from disk and checks its CRC-32 against the stage-time
// checksum, detecting bit rot or external modification.
func (s *Store) Verify(f bundle.FileID) error {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.present {
		return fmt.Errorf("store: file %d not staged", f)
	}
	rc, err := os.Open(e.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer rc.Close()
	n, sum, err := copyCRC(io.Discard, rc)
	if err != nil {
		return fmt.Errorf("store: verify %d: %w", f, err)
	}
	if bundle.Size(n) != e.size || sum != e.checksum {
		return fmt.Errorf("store: file %d corrupted (size %d/%d, crc %08x/%08x)",
			f, n, e.size, sum, e.checksum)
	}
	return nil
}

// Remove deletes f's bytes (eviction) as generation gen. It does nothing if
// a newer generation has already been applied to f — a later load owns the
// file now. Removing an absent file is a no-op.
func (s *Store) Remove(f bundle.FileID, gen Gen) error {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen > gen {
		return nil
	}
	if e.present {
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	e.gen = gen
	e.present = false
	return nil
}

// DiskUsage sums the sizes of materialized files.
func (s *Store) DiskUsage() bundle.Size {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.files))
	for _, e := range s.files {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	var total bundle.Size
	for _, e := range entries {
		e.mu.Lock()
		if e.present {
			total += e.size
		}
		e.mu.Unlock()
	}
	return total
}
