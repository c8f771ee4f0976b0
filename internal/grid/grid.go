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
	// uplinks is dense by SiteID: uplinks[s] is the link between s and the
	// local site. Every transfer lands in the local cache, so links between
	// two remote sites are validated but not kept: no cost reads them.
	uplinks []uplink
	local   SiteID
}

// uplink is a site's link to the local site; ok is false when it has none.
type uplink struct {
	Link
	ok bool
}

// NewTopology creates a topology with the given local site.
func NewTopology(localName string, localMSS mss.Config) (*Topology, error) {
	if err := localMSS.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{}
	t.sites = append(t.sites, Site{Name: localName, MSS: localMSS})
	t.uplinks = append(t.uplinks, uplink{})
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
	t.uplinks = append(t.uplinks, uplink{})
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
	switch t.local {
	case a:
		t.uplinks[b] = uplink{Link: link, ok: true}
	case b:
		t.uplinks[a] = uplink{Link: link, ok: true}
	}
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
	link := t.uplinks[from]
	if !link.ok {
		return math.Inf(1)
	}
	return cost + link.LatencySec + float64(size)/link.BandwidthBps
}

// Replicas is the replica catalog: which sites hold which files.
type Replicas struct {
	// locs is dense by FileID (catalog IDs are small sequential integers):
	// locs[f] lists the sites holding f in registration order, empty when
	// it has none. A file's slot keeps its backing array after its last
	// replica leaves, so a re-planted file does not allocate again. The
	// table grows geometrically on first sight of a larger FileID.
	locs [][]SiteID
}

// NewReplicas returns an empty catalog.
func NewReplicas() *Replicas { return &Replicas{} }

// sitesOf returns the catalog's own site list of f (empty if unknown).
//
//fbvet:inline
func (r *Replicas) sitesOf(f bundle.FileID) []SiteID {
	if uint(f) < uint(len(r.locs)) {
		return r.locs[f]
	}
	return nil
}

// Add registers a replica of f at site s (idempotent).
func (r *Replicas) Add(f bundle.FileID, s SiteID) {
	if r.Has(f, s) {
		return
	}
	if uint(f) >= uint(len(r.locs)) {
		grown := make([][]SiteID, max(uint(f)+1, 2*uint(len(r.locs))))
		copy(grown, r.locs)
		r.locs = grown
	}
	r.locs[f] = append(r.locs[f], s)
}

// Has reports whether site s holds a replica of f, without copying the
// site list — the replica re-planner asks it once per hot file per epoch.
//
//fbvet:noescape
//fbvet:inline per-candidate local-copy test of every replan epoch
func (r *Replicas) Has(f bundle.FileID, s SiteID) bool {
	for _, have := range r.sitesOf(f) {
		if have == s {
			return true
		}
	}
	return false
}

// Holders returns the sites holding f in registration order, without
// copying: the slice is the catalog's own, so callers must neither modify
// it nor keep it past the next Add or Remove. The replica re-planner
// walks it once per hot file per epoch.
func (r *Replicas) Holders(f bundle.FileID) []SiteID { return r.sitesOf(f) }

// NumSitesOf reports how many sites hold a replica of f (0 if unknown).
func (r *Replicas) NumSitesOf(f bundle.FileID) int { return len(r.sitesOf(f)) }

// Remove deregisters the replica of f at site s, reporting whether it was
// present. A file whose last replica is removed leaves the catalog entirely.
// The replica re-planner uses this to retire cold local copies; callers are
// responsible for never dropping the only copy of a file they still need.
func (r *Replicas) Remove(f bundle.FileID, s SiteID) bool {
	locs := r.sitesOf(f)
	for i, have := range locs {
		if have != s {
			continue
		}
		r.locs[f] = append(locs[:i], locs[i+1:]...)
		return true
	}
	return false
}

// Sites returns the sites holding f (nil if unknown). The slice is a copy;
// mutating it cannot corrupt the catalog.
func (r *Replicas) Sites(f bundle.FileID) []SiteID {
	locs := r.sitesOf(f)
	if len(locs) == 0 {
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

// AppendRankedSources appends the reachable replica sites of f to dst,
// ordered cheapest-first — the failover walk order when a transfer keeps
// failing — and returns the extended slice. Unreachable replicas (no link)
// are omitted; cost ties keep registration order. dst's existing elements
// are left untouched, so a caller ranking once per file reuses one buffer. Each source is sunk into place
// as it is appended — an online stable insertion sort. Up to 20 sources
// that is exactly what sort.SliceStable runs (it insertion-sorts blocks of
// 20), and for any count a stable sort by cost has one result, so the
// order is sort.SliceStable's without its allocations.
//
//fbvet:noescape
func (r *Replicas) AppendRankedSources(dst []Source, t *Topology, f bundle.FileID, size bundle.Size) []Source {
	base := len(dst)
	for _, s := range r.sitesOf(f) {
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
