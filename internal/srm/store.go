package srm

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
	"fbcache/internal/store"
)

// WithStore attaches a file-backed store to the SRM: every successful Stage
// deletes the files the policy evicted and materializes the files it pinned,
// so the cache directory mirrors the policy's residency. Call before serving
// traffic.
func (s *SRM) WithStore(st *store.Store) *SRM {
	if st == nil {
		panic("srm: nil store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
	return s
}

// fileGen is one store operation: a file and the intent generation it must
// be applied at.
type fileGen struct {
	f   bundle.FileID
	gen store.Gen
}

// storeAttempts bounds the tries per store operation: transient filesystem
// errors (NFS hiccups, contended directories) are retried, persistent ones
// surface on the third try.
const storeAttempts = 3

// storeMoves is one admission's store work, decided under s.mu and applied
// after it is released. The zero value (no store attached) does nothing.
type storeMoves struct {
	st     *store.Store
	rec    *span.Recorder
	ops    []fileGen // the evictions, then the files to bring present
	nevict int
}

// stampMoves records the admission's intents in the store: a fresh
// generation for every file the policy evicted or loaded, and the current
// generation of every other pinned file (a hit). Applying the moves at
// those generations makes each interleaving with other stages converge on
// the policy's order — a stale unlink never deletes a newer load, and a hit
// on a file whose load is still in flight (or failed) waits for, or
// redoes, that load. Called with s.mu held; takes only the store's map lock.
func (s *SRM) stampMoves(res policy.Result, pinned bundle.Bundle) storeMoves {
	if s.store == nil {
		return storeMoves{}
	}
	mv := storeMoves{
		st: s.store, rec: s.rec,
		ops: make([]fileGen, 0, len(res.Evicted)+len(res.Loaded)+len(pinned)),
	}
	for _, f := range res.Evicted {
		mv.ops = append(mv.ops, fileGen{f, s.store.Stamp(f)})
	}
	mv.nevict = len(mv.ops)
	for _, f := range res.Loaded {
		gen := s.store.Stamp(f)
		if !pinned.Contains(f) {
			mv.ops = append(mv.ops, fileGen{f, gen})
		}
	}
	for _, f := range pinned {
		mv.ops = append(mv.ops, fileGen{f, s.store.Intent(f)})
	}
	return mv
}

// apply performs the moves without s.mu: it unlinks each evicted file, then
// brings every pinned or loaded file present, each at its generation. Every
// operation gets storeAttempts tries. It reports the repeats for
// Resilience.Retries.
func (mv *storeMoves) apply() (retries int64, err error) {
	for i, op := range mv.ops {
		evict := i < mv.nevict
		for try := 0; try < storeAttempts; try++ {
			if try > 0 {
				retries++
			}
			if evict {
				err = mv.st.Remove(op.f, op.gen)
			} else {
				_, _, err = mv.st.Stage(op.f, op.gen)
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			kind := "load"
			if evict {
				kind = "evict"
			}
			return retries, fmt.Errorf("srm: store %s %d: %w", kind, op.f, err)
		}
	}
	return retries, nil
}

// OpenStaged returns a reader over a staged file's bytes. Only valid while
// the caller holds a Stage lease covering the file; requires WithStore.
func (s *SRM) OpenStaged(f bundle.FileID) (storeReader, error) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("srm: no store attached")
	}
	return st.Open(f)
}

// storeReader is the reader type returned by OpenStaged.
type storeReader = interface {
	Read(p []byte) (int, error)
	Close() error
}
