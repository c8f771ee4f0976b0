package bundle

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Catalog maps human-readable file names to dense FileIDs and records file
// sizes. It is the system's view of "all files that exist in the grid";
// workload generators, SRMs and simulators all share one catalog.
//
// A Catalog is safe for concurrent use.
type Catalog struct {
	// snap is a lazily built copy-on-write snapshot of sizes: mutations
	// invalidate it (Store(nil) under mu), and the first Size call after a
	// mutation rebuilds it under mu. Steady-state Size calls — the per-file
	// SizeFunc reads on every selection round — then run lock-free on the
	// immutable snapshot, which profiling showed removes the RWMutex from
	// the admission hot path entirely. It is atomically self-synchronized,
	// so mu does not guard it.
	snap atomic.Pointer[[]Size]

	mu    sync.RWMutex
	names []string          // guarded by mu
	sizes []Size            // guarded by mu
	index map[string]FileID // guarded by mu
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{index: make(map[string]FileID)}
}

// Add registers a file with the given name and size and returns its ID.
// Adding an existing name updates its size and returns the existing ID.
func (c *Catalog) Add(name string, size Size) FileID {
	if size < 0 {
		panic(fmt.Sprintf("bundle: negative size %d for file %q", size, name))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.index[name]; ok {
		c.sizes[id] = size
		c.snap.Store(nil)
		return id
	}
	id := FileID(len(c.names))
	c.names = append(c.names, name)
	c.sizes = append(c.sizes, size)
	c.index[name] = id
	c.snap.Store(nil)
	return id
}

// AddAnonymous registers a file with a generated name ("file-<id>").
func (c *Catalog) AddAnonymous(size Size) FileID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := FileID(len(c.names))
	name := fmt.Sprintf("file-%d", id)
	c.names = append(c.names, name)
	c.sizes = append(c.sizes, size)
	c.index[name] = id
	c.snap.Store(nil)
	return id
}

// Lookup returns the ID for name, if registered.
func (c *Catalog) Lookup(name string) (FileID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.index[name]
	return id, ok
}

// Resolve maps file names to the bundle of their IDs under one read lock.
// It fails on the first name that is not registered.
func (c *Catalog) Resolve(names []string) (Bundle, error) {
	ids := make([]FileID, len(names))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, n := range names {
		id, ok := c.index[n]
		if !ok {
			return nil, fmt.Errorf("unknown file %q", n)
		}
		ids[i] = id
	}
	return FromSlice(ids), nil
}

// Name returns the name of file id. It panics on unknown IDs.
func (c *Catalog) Name(id FileID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.names[id]
}

// Size returns the size of file id. It panics on unknown IDs. The fast path
// reads the lock-free snapshot; only the first call after a mutation takes
// the lock (to rebuild it).
func (c *Catalog) Size(id FileID) Size {
	if p := c.snap.Load(); p != nil {
		return (*p)[id]
	}
	return c.sizeSlow(id)
}

// sizeSlow rebuilds the snapshot under the lock and answers from it.
func (c *Catalog) sizeSlow(id FileID) Size {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := make([]Size, len(c.sizes))
	copy(snap, c.sizes)
	c.snap.Store(&snap)
	return snap[id]
}

// SizeFunc returns a SizeFunc backed by the catalog.
func (c *Catalog) SizeFunc() SizeFunc { return c.Size }

// Len reports the number of registered files.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.names)
}

// Files returns a snapshot of all files in ID order.
func (c *Catalog) Files() []File {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]File, len(c.names))
	for i := range c.names {
		out[i] = File{ID: FileID(i), Size: c.sizes[i]}
	}
	return out
}

// TotalSize reports the combined size of all registered files.
func (c *Catalog) TotalSize() Size {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total Size
	for _, s := range c.sizes {
		total += s
	}
	return total
}
