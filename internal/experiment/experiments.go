package experiment

import (
	"fmt"
	"io"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/policy/offline"
	"fbcache/internal/queue"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// Config scales the simulation experiments. The paper ran 10000 jobs per
// point for ~1000 CPU-hours on a 2004 Opteron cluster; DefaultConfig
// reproduces every qualitative shape in seconds. Raise Jobs (cmd/fbbench
// -jobs) for tighter curves.
type Config struct {
	// Seed drives workload generation.
	Seed int64
	// Jobs per simulation point.
	Jobs int
	// NumFiles / NumRequests size the pools (§5.1).
	NumFiles    int
	NumRequests int
	// CacheSize is the reference capacity files are sized against.
	CacheSize bundle.Size
	// Replications averages each simulated point over this many independent
	// workloads (seeds Seed, Seed+1, ...). <= 1 means a single run — the
	// default, since the paper's qualitative shapes are stable at one seed.
	Replications int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Jobs:        4000,
		NumFiles:    300,
		NumRequests: 150,
		CacheSize:   4 * bundle.GB,
	}
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// baseSpec instantiates the §5.1 workload model for this config. The file
// pool is scaled up when files are small so that its total size always
// exceeds the cache severalfold — otherwise every policy converges to the
// compulsory-miss floor and the comparison degenerates.
func (c Config) baseSpec(pop workload.Popularity, maxFilePct float64) workload.Spec {
	numFiles := c.NumFiles
	if min := int(6 / maxFilePct); numFiles < min {
		numFiles = min
	}
	return workload.Spec{
		Seed:           c.Seed,
		CacheSize:      c.CacheSize,
		NumFiles:       numFiles,
		MinFileSize:    bundle.MB,
		MaxFilePct:     maxFilePct,
		NumRequests:    c.NumRequests,
		MaxBundleFiles: 6,
		MaxBundleFrac:  0.25,
		Popularity:     pop,
		ZipfS:          1,
		Jobs:           c.Jobs,
	}
}

// optFactory is the OptFileBundle configuration used throughout the
// evaluation: the practical resort variant with the §5.3 cache-resident
// history truncation.
func optFactory() policy.Factory {
	return policy.OptFileBundleFactory(core.DefaultOptions())
}

// PaperExampleRequests returns the request pool of the §3 worked example
// (Fig. 3), reconstructed from the constraints of Tables 1 and 2.
func PaperExampleRequests() []bundle.Bundle {
	return []bundle.Bundle{
		bundle.New(1, 3, 5),    // r1
		bundle.New(2, 4, 6, 7), // r2
		bundle.New(1, 5),       // r3
		bundle.New(4, 6, 7),    // r4
		bundle.New(3, 5),       // r5
		bundle.New(5, 6, 7),    // r6
	}
}

// Table1 regenerates the paper's Table 1: per-file request counts and the
// probability that a random request needs the file.
func Table1() *Table {
	reqs := PaperExampleRequests()
	t := &Table{
		ID:       "table1",
		Title:    "File request probabilities (6 equally likely requests)",
		ColLabel: "file",
		Series:   []string{"requests", "probability"},
	}
	for f := bundle.FileID(1); f <= 7; f++ {
		count := 0
		for _, r := range reqs {
			if r.Contains(f) {
				count++
			}
		}
		t.AddRow(fmt.Sprintf("f%d", f), float64(f), float64(count), float64(count)/6)
	}
	t.Notes = append(t.Notes, "most popular file is f5 (4 of 6 requests), then f6 and f7")
	return t
}

// Table2 regenerates the paper's Table 2: request-hit probabilities for the
// five cache contents discussed in §3, and verifies OptCacheSelect finds the
// best one.
func Table2() *Table {
	reqs := PaperExampleRequests()
	contents := []bundle.Bundle{
		bundle.New(5, 6, 7),
		bundle.New(1, 3, 5),
		bundle.New(1, 5, 6),
		bundle.New(3, 5, 6),
		bundle.New(1, 2, 3),
	}
	t := &Table{
		ID:       "table2",
		Title:    "Request-hit probabilities for candidate cache contents (capacity 3)",
		ColLabel: "cache contents",
		Series:   []string{"requests supported", "request-hit probability"},
	}
	for i, c := range contents {
		hits := 0
		for _, r := range reqs {
			if r.SubsetOf(c) {
				hits++
			}
		}
		t.AddRow(c.String(), float64(i), float64(hits), float64(hits)/6)
	}

	// OptCacheSelect on the same instance.
	cands := make([]core.Candidate, len(reqs))
	for i, r := range reqs {
		cands[i] = core.Candidate{Bundle: r, Value: 1}
	}
	deg := map[bundle.FileID]int{1: 2, 2: 1, 3: 2, 4: 2, 5: 4, 6: 3, 7: 3}
	sel := core.Select(cands, 3, core.SelectOptions{
		SizeOf:   func(bundle.FileID) bundle.Size { return 1 },
		DegreeOf: func(f bundle.FileID) int { return deg[f] },
		Resort:   true,
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("OptCacheSelect chooses %v supporting %d requests (hit probability %.3f)",
			sel.Files, len(sel.Chosen), float64(len(sel.Chosen))/6))
	return t
}

// capacitySweep returns the simulated cache capacities for Figures 6–8 as
// fractions of the reference cache, smallest first.
func capacitySweep(ref bundle.Size) []bundle.Size {
	fracs := []float64{0.25, 0.375, 0.5, 0.625, 0.75, 1.0}
	out := make([]bundle.Size, len(fracs))
	for i, f := range fracs {
		out[i] = bundle.Size(f * float64(ref))
	}
	return out
}

// runPoint simulates one (workload, policy, capacity) point.
func runPoint(w *workload.Workload, mk policy.Factory, capacity bundle.Size, opts simulate.Options) (byteMiss, bytesPerReq float64, err error) {
	p := mk(capacity, w.Catalog.SizeFunc())
	col, err := simulate.Run(w, p, opts)
	if err != nil {
		return 0, 0, err
	}
	return col.ByteMissRatio(), col.BytesPerRequest(), nil
}

// replicatedWorkloads generates the independent workloads each point is
// averaged over (Config.Replications; at least one).
func (c Config) replicatedWorkloads(pop workload.Popularity, maxFilePct float64) ([]*workload.Workload, error) {
	reps := c.Replications
	if reps < 1 {
		reps = 1
	}
	out := make([]*workload.Workload, 0, reps)
	for r := 0; r < reps; r++ {
		spec := c.baseSpec(pop, maxFilePct)
		spec.Seed = c.Seed + int64(r)
		w, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// avgMiss averages the byte miss ratio of a policy at one capacity across
// replicated workloads.
func avgMiss(ws []*workload.Workload, mk policy.Factory, capacity bundle.Size) (float64, error) {
	total := 0.0
	for _, w := range ws {
		miss, _, err := runPoint(w, mk, capacity, simulate.Options{})
		if err != nil {
			return 0, err
		}
		total += miss
	}
	return total / float64(len(ws)), nil
}

// missVsCacheSize builds one Fig-6/7-style table: byte miss ratio versus
// cache size (in requests) for OptFileBundle and Landlord, averaged over
// Config.Replications workloads.
func (c Config) missVsCacheSize(id, title string, pop workload.Popularity, maxFilePct float64) (*Table, error) {
	ws, err := c.replicatedWorkloads(pop, maxFilePct)
	if err != nil {
		return nil, err
	}
	mean := float64(ws[0].MeanRequestBytes())
	t := &Table{
		ID:       id,
		Title:    title,
		ColLabel: "cache size (requests)",
		Series:   []string{"optfilebundle", "landlord"},
	}
	for _, capacity := range capacitySweep(c.CacheSize) {
		x := float64(capacity) / mean
		opt, err := avgMiss(ws, optFactory(), capacity)
		if err != nil {
			return nil, err
		}
		ll, err := avgMiss(ws, landlord.Factory(), capacity)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", x), x, opt, ll)
		c.progress("%s: cache=%.1f req: opt=%.4f landlord=%.4f", id, x, opt, ll)
	}
	return t, nil
}

// Figure5 regenerates Fig. 5: byte miss ratio as the request-history length
// offered to OptCacheSelect varies from cache-resident-only to the full
// history. The paper's finding: truncation effects are negligible.
func (c Config) Figure5() (*Table, error) {
	variants := []struct {
		label string
		cfg   history.Config
	}{
		{"cache-resident", history.Config{Truncation: history.CacheResident}},
		{"window-16", history.Config{Truncation: history.Window, Limit: 16}},
		{"window-64", history.Config{Truncation: history.Window, Limit: 64}},
		{"window-256", history.Config{Truncation: history.Window, Limit: 256}},
		{"full", history.Config{Truncation: history.Full}},
	}
	t := &Table{
		ID:       "fig5",
		Title:    "Effect of varying the history length (byte miss ratio)",
		ColLabel: "history",
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
	for i, v := range variants {
		var vals []float64
		for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
			mk := policy.OptFileBundleFactory(core.Options{History: v.cfg})
			miss, _, err := runPoint(workloads[pop], mk, c.CacheSize, simulate.Options{})
			if err != nil {
				return nil, err
			}
			vals = append(vals, miss)
		}
		t.AddRow(v.label, float64(i), vals...)
		c.progress("fig5: %s uniform=%.4f zipf=%.4f", v.label, vals[0], vals[1])
	}
	t.Notes = append(t.Notes, "paper: truncation effects are negligible; spread across rows should be small")
	return t, nil
}

// Figure6 regenerates Fig. 6(a)/(b): byte miss ratio for SMALL files (max
// file size 1% of the cache), uniform and Zipf request distributions.
func (c Config) Figure6() ([]*Table, error) {
	a, err := c.missVsCacheSize("fig6a", "Byte miss ratio, small files (1% cap), uniform requests", workload.Uniform, 0.01)
	if err != nil {
		return nil, err
	}
	b, err := c.missVsCacheSize("fig6b", "Byte miss ratio, small files (1% cap), Zipf requests", workload.Zipf, 0.01)
	if err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}

// Figure7 regenerates Fig. 7: byte miss ratio for LARGE files (max file size
// 10% of the cache), uniform and Zipf request distributions.
func (c Config) Figure7() ([]*Table, error) {
	a, err := c.missVsCacheSize("fig7a", "Byte miss ratio, large files (10% cap), uniform requests", workload.Uniform, 0.10)
	if err != nil {
		return nil, err
	}
	b, err := c.missVsCacheSize("fig7b", "Byte miss ratio, large files (10% cap), Zipf requests", workload.Zipf, 0.10)
	if err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}

// Figure8 regenerates Fig. 8: the average volume of data moved into the
// cache per request as the cache size (in requests) varies, for both
// policies and both distributions.
func (c Config) Figure8() (*Table, error) {
	t := &Table{
		ID:       "fig8",
		Title:    "Average data moved per request (MB) vs cache size",
		ColLabel: "cache size (requests)",
		Series:   []string{"opt/uniform", "landlord/uniform", "opt/zipf", "landlord/zipf"},
	}
	wu, err := workload.Generate(c.baseSpec(workload.Uniform, 0.05))
	if err != nil {
		return nil, err
	}
	wz, err := workload.Generate(c.baseSpec(workload.Zipf, 0.05))
	if err != nil {
		return nil, err
	}
	mean := float64(wu.MeanRequestBytes())
	for _, capacity := range capacitySweep(c.CacheSize) {
		x := float64(capacity) / mean
		var vals []float64
		for _, w := range []*workload.Workload{wu, wz} {
			_, optBpr, err := runPoint(w, optFactory(), capacity, simulate.Options{})
			if err != nil {
				return nil, err
			}
			_, llBpr, err := runPoint(w, landlord.Factory(), capacity, simulate.Options{})
			if err != nil {
				return nil, err
			}
			vals = append(vals, optBpr/float64(bundle.MB), llBpr/float64(bundle.MB))
		}
		t.AddRow(fmt.Sprintf("%.1f", x), x, vals...)
		c.progress("fig8: cache=%.1f req done", x)
	}
	return t, nil
}

// Figure9 regenerates Fig. 9(a)/(b): byte miss ratio as the incoming queue
// length grows from 1 to 100, served highest-relative-value-first.
func (c Config) Figure9() ([]*Table, error) {
	qs := []int{1, 5, 10, 25, 50, 100}
	var out []*Table
	for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
		id, name := "fig9a", "uniform"
		if pop == workload.Zipf {
			id, name = "fig9b", "zipf"
		}
		// The request pool must be large relative to the longest queue, or
		// queueing trivially groups duplicate requests even under uniform
		// popularity and the distributions stop differing.
		spec := c.baseSpec(pop, 0.05)
		if spec.NumRequests < 4*qs[len(qs)-1] {
			spec.NumRequests = 4 * qs[len(qs)-1]
		}
		w, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:       id,
			Title:    fmt.Sprintf("Effect of queue length, %s requests (byte miss ratio)", name),
			ColLabel: "queue length",
			Series:   []string{"optfilebundle"},
		}
		for _, q := range qs {
			opt := core.New(c.CacheSize, w.Catalog.SizeFunc(), core.DefaultOptions())
			col, err := simulate.Run(w, opt, simulate.Options{
				QueueLength: q,
				Scheduler:   queue.ByScore("relative-value", opt.RelativeValue),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("q%d", q), float64(q), col.ByteMissRatio())
			c.progress("%s: q=%d miss=%.4f", id, q, col.ByteMissRatio())
		}
		out = append(out, t)
	}
	return out, nil
}

// Baselines goes beyond the paper: every implemented policy on the same
// workloads, the quantitative form of the §1 claim that popularity-based
// policies underperform on bundle workloads.
func (c Config) Baselines() (*Table, error) {
	factories := []struct {
		name string
		mk   policy.Factory
	}{
		{"optfilebundle", optFactory()},
		{"landlord", landlord.Factory()},
		{"gdsf", classic.GDSFFactory()},
		{"lru", classic.LRUFactory()},
		{"lfu", classic.LFUFactory()},
		{"fifo", classic.FIFOFactory()},
		{"random", classic.RandomFactory(7)},
		{"mru", classic.MRUFactory()},
	}
	t := &Table{
		ID:       "baselines",
		Title:    "Byte miss ratio across all policies (extension of the paper's comparison)",
		ColLabel: "policy",
		Series:   []string{"uniform", "zipf"},
	}
	wu, err := workload.Generate(c.baseSpec(workload.Uniform, 0.05))
	if err != nil {
		return nil, err
	}
	wz, err := workload.Generate(c.baseSpec(workload.Zipf, 0.05))
	if err != nil {
		return nil, err
	}
	for i, f := range factories {
		u, _, err := runPoint(wu, f.mk, c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		z, _, err := runPoint(wz, f.mk, c.CacheSize, simulate.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(f.name, float64(i), u, z)
		c.progress("baselines: %s uniform=%.4f zipf=%.4f", f.name, u, z)
	}

	// Clairvoyant reference: Belady's MIN adapted to bundles, built with
	// the full future (not part of the paper; a hindsight floor).
	beladyMiss := func(w *workload.Workload) (float64, error) {
		future := make([]bundle.Bundle, len(w.Jobs))
		for i := range w.Jobs {
			future[i] = w.JobBundle(i)
		}
		p := offline.New(c.CacheSize, w.Catalog.SizeFunc(), future)
		col, err := simulate.Run(w, p, simulate.Options{})
		if err != nil {
			return 0, err
		}
		return col.ByteMissRatio(), nil
	}
	bu, err := beladyMiss(wu)
	if err != nil {
		return nil, err
	}
	bz, err := beladyMiss(wz)
	if err != nil {
		return nil, err
	}
	t.AddRow("belady-offline", float64(len(factories)), bu, bz)
	c.progress("baselines: belady uniform=%.4f zipf=%.4f", bu, bz)

	t.Notes = append(t.Notes,
		"paper compares only Landlord; frequency-aware single-file policies (gdsf, lfu) can be competitive at some operating points",
		"belady-offline sees the whole future (hindsight reference, not in the paper)")
	return t, nil
}

// All runs every experiment and returns the tables in paper order.
func (c Config) All() ([]*Table, error) {
	var out []*Table
	out = append(out, Table1(), Table2())
	f5, err := c.Figure5()
	if err != nil {
		return nil, err
	}
	out = append(out, f5)
	for _, gen := range []func() ([]*Table, error){c.Figure6, c.Figure7} {
		ts, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	f8, err := c.Figure8()
	if err != nil {
		return nil, err
	}
	out = append(out, f8)
	f9, err := c.Figure9()
	if err != nil {
		return nil, err
	}
	out = append(out, f9...)
	bs, err := c.BoundStudy()
	if err != nil {
		return nil, err
	}
	out = append(out, bs)
	bl, err := c.Baselines()
	if err != nil {
		return nil, err
	}
	out = append(out, bl)
	for _, gen := range []func() (*Table, error){c.HybridStudy, c.RequestSizeStudy, c.SaturationStudy, c.ShardingStudy, c.OverlapStudy, c.DegradedMode} {
		tab, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// monotoneNonIncreasing is a helper for tests: true if vals never rise by
// more than tol (relative).
func monotoneNonIncreasing(vals []float64, tol float64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]*(1+tol) {
			return false
		}
	}
	return true
}
