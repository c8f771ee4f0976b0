package experiment

import (
	"fmt"

	"fbcache/internal/cluster"
	"fbcache/internal/mss"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// HybridStudy sweeps the §6 hybrid execution model: the byte miss ratio as
// the fraction of jobs serviced bundle-at-a-time grows from 0 (pure
// one-file-at-a-time, the authors' prior work [8]) to 1 (this paper's
// model), under both popularity laws.
func (c Config) HybridStudy() (*Table, error) {
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	t := &Table{
		ID:       "hybrid",
		Title:    "Hybrid execution model: byte miss ratio vs bundle-service fraction (§6 future work)",
		ColLabel: "bundle fraction",
		Series:   []string{"uniform", "zipf"},
	}
	workloads := make(map[workload.Popularity]*workload.Workload)
	for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
		w, err := workload.Generate(c.baseSpec(pop, 0.05))
		if err != nil {
			return nil, err
		}
		workloads[pop] = w
	}
	for _, frac := range fractions {
		var vals []float64
		for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
			w := workloads[pop]
			p := optFactory()(c.CacheSize, w.Catalog.SizeFunc())
			st, err := simulate.RunHybrid(w, p, simulate.HybridOptions{
				BundleFraction: frac,
				Seed:           c.Seed + 77,
			})
			if err != nil {
				return nil, err
			}
			vals = append(vals, st.Combined.ByteMissRatio())
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), frac, vals...)
		c.progress("hybrid: frac=%.2f uniform=%.4f zipf=%.4f", frac, vals[0], vals[1])
	}
	t.Notes = append(t.Notes, "per-file service gives the policy finer popularity signals but no co-access structure; byte ratios stay comparable while only bundle service guarantees co-residency")
	return t, nil
}

// SaturationStudy runs the timed simulator across arrival rates and reports
// mean response time for OptFileBundle vs Landlord on a slow archive — the
// §2 "maximize throughput / minimize response time" framing that the paper
// leaves as future work.
func (c Config) SaturationStudy() (*Table, error) {
	rates := []float64{0.2, 0.4, 0.8, 1.6}
	archive := mss.Config{Name: "tape", LatencySec: 8, BandwidthBps: 80e6, Channels: 4}
	w, err := workload.Generate(c.baseSpec(workload.Zipf, 0.05))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:       "saturation",
		Title:    "Mean response time (s) vs arrival rate, Zipf requests, tape archive",
		ColLabel: "arrival rate (jobs/s)",
		Series:   []string{"optfilebundle", "landlord"},
	}
	// Timed runs are slower; cap the jobs per point.
	maxJobs := c.Jobs
	if maxJobs > 1500 {
		maxJobs = 1500
	}
	for _, rate := range rates {
		opts := simulate.EventOptions{
			ArrivalRate: rate, MSS: archive, Slots: 4, Seed: c.Seed, MaxJobs: maxJobs,
		}
		pOpt := optFactory()(c.CacheSize, w.Catalog.SizeFunc())
		stOpt, err := simulate.RunEvents(w, pOpt, opts)
		if err != nil {
			return nil, err
		}
		pLL := landlord.Factory()(c.CacheSize, w.Catalog.SizeFunc())
		stLL, err := simulate.RunEvents(w, pLL, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", rate), rate, stOpt.MeanResponse, stLL.MeanResponse)
		c.progress("saturation: rate=%.1f opt=%.1fs landlord=%.1fs", rate, stOpt.MeanResponse, stLL.MeanResponse)
	}
	t.Notes = append(t.Notes, "lower byte miss ratio defers saturation: the landlord curve blows up at lower arrival rates")
	return t, nil
}

// RequestSizeStudy sweeps the §5.2 "Request Size" parameter directly: with
// the cache fixed, growing bundles mean fewer requests fit simultaneously
// and the byte miss ratio rises for every policy; OptFileBundle must stay
// below Landlord throughout.
func (c Config) RequestSizeStudy() (*Table, error) {
	bundleSizes := []int{2, 4, 6, 8, 10}
	t := &Table{
		ID:       "reqsize",
		Title:    "Byte miss ratio vs max bundle size (files), Zipf requests",
		ColLabel: "max files/request",
		Series:   []string{"optfilebundle", "landlord", "cache size (requests)"},
	}
	for _, n := range bundleSizes {
		spec := c.baseSpec(workload.Zipf, 0.05)
		spec.MaxBundleFiles = n
		w, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		opt, _, err := runPoint(w, optFactory(), c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		ll, _, err := runPoint(w, landlord.Factory(), c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), float64(n), opt, ll, w.CacheSizeInRequests())
		c.progress("reqsize: files=%d opt=%.4f landlord=%.4f", n, opt, ll)
	}
	return t, nil
}

// ShardingStudy quantifies the §2 cluster deployment: the same total cache
// bytes, monolithic versus distributed over 2/4/8 independent node disks
// (files hashed to nodes). Fragmentation and load imbalance raise the byte
// miss ratio as the node count grows.
func (c Config) ShardingStudy() (*Table, error) {
	t := &Table{
		ID:       "sharding",
		Title:    "Cluster-distributed cache: byte miss ratio vs node count (same total bytes)",
		ColLabel: "nodes",
		Series:   []string{"uniform", "zipf", "imbalance (zipf)"},
	}
	workloads := make(map[workload.Popularity]*workload.Workload)
	for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
		w, err := workload.Generate(c.baseSpec(pop, 0.05))
		if err != nil {
			return nil, err
		}
		workloads[pop] = w
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		var vals []float64
		var imbalance float64
		for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
			w := workloads[pop]
			s, err := cluster.New(c.CacheSize, nodes, w.Catalog.SizeFunc(), optFactory(), nil)
			if err != nil {
				return nil, err
			}
			col, err := cluster.Run(w, s, 0)
			if err != nil {
				return nil, err
			}
			vals = append(vals, col.ByteMissRatio())
			if pop == workload.Zipf {
				imbalance = s.Imbalance()
			}
		}
		t.AddRow(fmt.Sprintf("%d", nodes), float64(nodes), vals[0], vals[1], imbalance)
		c.progress("sharding: nodes=%d uniform=%.4f zipf=%.4f", nodes, vals[0], vals[1])
	}
	t.Notes = append(t.Notes, "node count 1 equals the monolithic cache; unserviceable shards count as full misses")
	return t, nil
}

// OverlapStudy probes how file sharing drives OptFileBundle's advantage:
// the workload's file pool is partitioned into clusters (requests draw
// within one cluster), concentrating co-occurrence the §5.1 uniform
// generator lacks. More sharing means richer bundle structure for
// OptCacheSelect to exploit.
func (c Config) OverlapStudy() (*Table, error) {
	clusterCounts := []int{0, 20, 10, 5} // 0 = paper's unstructured generator
	t := &Table{
		ID:       "overlap",
		Title:    "Byte miss ratio vs file-sharing structure (clustered bundles), Zipf requests",
		ColLabel: "clusters",
		Series:   []string{"optfilebundle", "landlord", "advantage"},
	}
	for _, clusters := range clusterCounts {
		spec := c.baseSpec(workload.Zipf, 0.05)
		spec.Clusters = clusters
		w, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		opt, _, err := runPoint(w, optFactory(), c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		ll, _, err := runPoint(w, landlord.Factory(), c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		adv := 0.0
		if ll > 0 {
			adv = (ll - opt) / ll
		}
		label := "none"
		if clusters > 0 {
			label = fmt.Sprintf("%d", clusters)
		}
		t.AddRow(label, float64(clusters), opt, ll, adv)
		c.progress("overlap: clusters=%d opt=%.4f landlord=%.4f adv=%.3f", clusters, opt, ll, adv)
	}
	t.Notes = append(t.Notes, "'advantage' is Landlord's relative excess byte miss; fewer clusters = denser intra-cluster sharing")
	return t, nil
}
