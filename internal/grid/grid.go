// Package grid models the data-grid fabric around an SRM (§2): sites
// hosting mass storage systems, wide-area links between them, and a replica
// catalog mapping files to the sites that hold copies. The SRM uses it to
// cost transfers and pick the cheapest replica — the "strategic data
// replication" building block of §1.
package grid

import (
	"fmt"
	"math"

	"fbcache/internal/bundle"
	"fbcache/internal/mss"
)

// SiteID indexes a site within a Topology.
type SiteID int

// Site is one storage location in the grid.
type Site struct {
	Name string
	MSS  mss.Config
}

// Link describes the WAN path between two sites.
type Link struct {
	LatencySec   float64
	BandwidthBps float64
}

// Topology is the set of sites and links, with one site designated local
// (where the SRM's disk cache lives).
type Topology struct {
	sites []Site
	links map[SiteID]map[SiteID]Link
	local SiteID
}

// NewTopology creates a topology with the given local site.
func NewTopology(localName string, localMSS mss.Config) (*Topology, error) {
	if err := localMSS.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{links: make(map[SiteID]map[SiteID]Link)}
	t.sites = append(t.sites, Site{Name: localName, MSS: localMSS})
	t.local = 0
	return t, nil
}

// AddSite registers a remote site and returns its ID.
func (t *Topology) AddSite(name string, cfg mss.Config) (SiteID, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	id := SiteID(len(t.sites))
	t.sites = append(t.sites, Site{Name: name, MSS: cfg})
	return id, nil
}

// Connect sets the link between two sites (bidirectional).
func (t *Topology) Connect(a, b SiteID, link Link) error {
	if !t.valid(a) || !t.valid(b) {
		return fmt.Errorf("grid: connect %d-%d: unknown site", a, b)
	}
	if a == b {
		return fmt.Errorf("grid: cannot connect site %d to itself", a)
	}
	if link.BandwidthBps <= 0 || link.LatencySec < 0 {
		return fmt.Errorf("grid: bad link %+v", link)
	}
	set := func(x, y SiteID) {
		if t.links[x] == nil {
			t.links[x] = make(map[SiteID]Link)
		}
		t.links[x][y] = link
	}
	set(a, b)
	set(b, a)
	return nil
}

func (t *Topology) valid(id SiteID) bool { return id >= 0 && int(id) < len(t.sites) }

// Local returns the local site ID.
func (t *Topology) Local() SiteID { return t.local }

// Site returns site metadata.
func (t *Topology) Site(id SiteID) (Site, error) {
	if !t.valid(id) {
		return Site{}, fmt.Errorf("grid: unknown site %d", id)
	}
	return t.sites[id], nil
}

// NumSites reports the number of sites.
func (t *Topology) NumSites() int { return len(t.sites) }

// TransferSeconds estimates the time to move size bytes from site `from` to
// the local cache: MSS read cost at the source plus WAN cost (zero for the
// local site). Returns +Inf if the source is unreachable.
func (t *Topology) TransferSeconds(from SiteID, size bundle.Size) float64 {
	if !t.valid(from) {
		return math.Inf(1)
	}
	cost := t.sites[from].MSS.TransferSeconds(size)
	if from == t.local {
		return cost
	}
	link, ok := t.links[from][t.local]
	if !ok {
		return math.Inf(1)
	}
	return cost + link.LatencySec + float64(size)/link.BandwidthBps
}

// Replicas is the replica catalog: which sites hold which files.
type Replicas struct {
	locs map[bundle.FileID][]SiteID
}

// NewReplicas returns an empty catalog.
func NewReplicas() *Replicas {
	return &Replicas{locs: make(map[bundle.FileID][]SiteID)}
}

// Add registers a replica of f at site s (idempotent).
func (r *Replicas) Add(f bundle.FileID, s SiteID) {
	if r.Has(f, s) {
		return
	}
	r.locs[f] = append(r.locs[f], s)
}

// Has reports whether site s holds a replica of f, without copying the
// site list — the replica re-planner asks it once per hot file per epoch.
//
//fbvet:noescape
//fbvet:inline per-candidate local-copy test of every replan epoch
func (r *Replicas) Has(f bundle.FileID, s SiteID) bool {
	for _, have := range r.locs[f] {
		if have == s {
			return true
		}
	}
	return false
}

// NumSitesOf reports how many sites hold a replica of f (0 if unknown).
func (r *Replicas) NumSitesOf(f bundle.FileID) int { return len(r.locs[f]) }

// Remove deregisters the replica of f at site s, reporting whether it was
// present. A file whose last replica is removed leaves the catalog entirely.
// The replica re-planner uses this to retire cold local copies; callers are
// responsible for never dropping the only copy of a file they still need.
func (r *Replicas) Remove(f bundle.FileID, s SiteID) bool {
	locs := r.locs[f]
	for i, have := range locs {
		if have != s {
			continue
		}
		locs = append(locs[:i], locs[i+1:]...)
		if len(locs) == 0 {
			delete(r.locs, f)
		} else {
			r.locs[f] = locs
		}
		return true
	}
	return false
}

// Sites returns the sites holding f (nil if unknown). The slice is a copy;
// mutating it cannot corrupt the catalog.
func (r *Replicas) Sites(f bundle.FileID) []SiteID {
	locs := r.locs[f]
	if locs == nil {
		return nil
	}
	out := make([]SiteID, len(locs))
	copy(out, locs)
	return out
}

// Source is one ranked replica option: a site holding the file and its
// transfer cost to the local cache.
type Source struct {
	Site SiteID
	Cost float64
}

// RankedSources returns the reachable replica sites of f ordered
// cheapest-first — the failover walk order when a transfer keeps failing.
// Unreachable replicas (no link) are omitted; cost ties keep registration
// order, so the first element is exactly BestSource's pick.
func (r *Replicas) RankedSources(t *Topology, f bundle.FileID, size bundle.Size) []Source {
	return r.AppendRankedSources(nil, t, f, size)
}

// AppendRankedSources appends RankedSources' result to dst and returns the
// extended slice; dst's existing elements are left untouched, so a caller
// ranking once per file reuses one buffer. Each source is sunk into place
// as it is appended — an online stable insertion sort. Up to 20 sources
// that is exactly what sort.SliceStable runs (it insertion-sorts blocks of
// 20), and for any count a stable sort by cost has one result, so the
// order is sort.SliceStable's without its allocations.
//
//fbvet:noescape
func (r *Replicas) AppendRankedSources(dst []Source, t *Topology, f bundle.FileID, size bundle.Size) []Source {
	base := len(dst)
	for _, s := range r.locs[f] {
		c := t.TransferSeconds(s, size)
		if math.IsInf(c, 1) {
			continue
		}
		dst = append(dst, Source{Site: s, Cost: c})
		for j := len(dst) - 1; j > base && dst[j].Cost < dst[j-1].Cost; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// BestSource picks the replica site with the lowest transfer cost to the
// local cache. ok is false when no replica is registered or reachable.
func (r *Replicas) BestSource(t *Topology, f bundle.FileID, size bundle.Size) (SiteID, float64, bool) {
	ranked := r.RankedSources(t, f, size)
	if len(ranked) == 0 {
		return 0, 0, false
	}
	return ranked[0].Site, ranked[0].Cost, true
}

// StageBundleCost sums the best-replica transfer costs of all files of b,
// and reports the bottleneck (max single-file) cost; files without replicas
// yield an error.
func (r *Replicas) StageBundleCost(t *Topology, b bundle.Bundle, sizeOf bundle.SizeFunc) (total, bottleneck float64, err error) {
	for _, f := range b {
		_, c, ok := r.BestSource(t, f, sizeOf(f))
		if !ok {
			return 0, 0, fmt.Errorf("grid: no reachable replica for file %d", f)
		}
		total += c
		if c > bottleneck {
			bottleneck = c
		}
	}
	return total, bottleneck, nil
}
