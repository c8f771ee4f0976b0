package analyze

import (
	"sort"

	"fbcache/internal/obs"
	"fbcache/internal/obs/traceio"
)

// SummaryOptions tunes Summarize.
type SummaryOptions struct {
	// Window is the number of served jobs per hit-ratio curve point
	// (default 100).
	Window int
	// TopChurn bounds the most-evicted-files list (default 5).
	TopChurn int
}

// PolicySummary aggregates the admissions of one policy (a trace normally
// has one, but nothing stops concatenating runs).
type PolicySummary struct {
	Policy         string
	Admits         int
	Hits           int
	Unserviceable  int
	BytesRequested int64
	BytesLoaded    int64
}

// HitRatio is request hits over serviceable admissions.
func (p PolicySummary) HitRatio() float64 {
	if n := p.Admits - p.Unserviceable; n > 0 {
		return float64(p.Hits) / float64(n)
	}
	return 0
}

// ByteMissRatio is bytes loaded over bytes requested — the paper's §1.2
// headline metric, reconstructed from the trace alone.
func (p PolicySummary) ByteMissRatio() float64 {
	if p.BytesRequested > 0 {
		return float64(p.BytesLoaded) / float64(p.BytesRequested)
	}
	return 0
}

// FileChurn is the eviction record of one file.
type FileChurn struct {
	File      int64
	Evictions int
	Reloads   int // loads after the first (each one re-paid the retrieval cost)
}

// WindowPoint is one point of the windowed hit-ratio curves.
type WindowPoint struct {
	Jobs           int // jobs served up to and including this window
	HitRatio       float64
	ByteHitRatio   float64
	BytesLoaded    int64
	BytesRequested int64
}

// Summary is the offline analytics bundle fbtrace renders.
type Summary struct {
	Stats    TraceStats
	Policies []PolicySummary // sorted by name

	// Residency is the distribution of jobs-resident-before-eviction, one
	// observation per evicted file occurrence; InterEviction is the
	// distribution of jobs between consecutive evictions. Both use the
	// fixed-bucket obs histogram; estimate percentiles with
	// Metric.Quantile / P50P90P99.
	Residency     obs.Metric
	InterEviction obs.Metric

	// Churn lists the TopChurn most-evicted files; ChurnedFiles counts
	// files evicted more than once and Reloads the total re-paid loads.
	Churn        []FileChurn
	ChurnedFiles int
	Reloads      int

	// Windows is the hit-ratio curve over served jobs.
	Windows []WindowPoint
}

// residencyBuckets spans 1 job .. ~2M jobs; traces beyond that land in the
// +Inf bucket and clamp.
func residencyBuckets() []float64 { return obs.ExpBuckets(1, 2, 22) }

// Summarize reduces a decoded trace to the Summary fbtrace renders. The
// jobs clock (see the package comment) drives every duration: a load at job
// 10 evicted at job 25 scores a residency of 15 jobs.
func Summarize(events []traceio.Event, opts SummaryOptions) Summary {
	if opts.Window <= 0 {
		opts.Window = 100
	}
	if opts.TopChurn <= 0 {
		opts.TopChurn = 5
	}

	s := Summary{Stats: Stats(events)}

	reg := obs.NewRegistry()
	residency := reg.NewHistogram("residency_jobs",
		"Jobs a file stayed resident before eviction.", residencyBuckets())
	interEvict := reg.NewHistogram("inter_eviction_jobs",
		"Jobs between consecutive evictions.", residencyBuckets())

	policies := make(map[string]*PolicySummary)
	loadedAt := make(map[int64]int) // file -> jobs clock at load
	everLoaded := make(map[int64]bool)
	churn := make(map[int64]*FileChurn)

	jobs := 0 // the jobs clock: job_served events seen so far
	lastEvictJob := -1
	var win WindowPoint

	flushWindow := func() {
		if win.BytesRequested > 0 {
			win.ByteHitRatio = 1 - float64(win.BytesLoaded)/float64(win.BytesRequested)
		}
		n := jobs - (len(s.Windows) * opts.Window)
		if n > 0 {
			win.HitRatio /= float64(n)
		}
		win.Jobs = jobs
		s.Windows = append(s.Windows, win)
		win = WindowPoint{}
	}

	for _, e := range events {
		switch ev := e.Ev.(type) {
		case obs.AdmitEvent:
			p := policies[ev.Policy]
			if p == nil {
				p = &PolicySummary{Policy: ev.Policy}
				policies[ev.Policy] = p
			}
			p.Admits++
			if ev.Hit {
				p.Hits++
			}
			if ev.Unserviceable {
				p.Unserviceable++
			}
			p.BytesRequested += ev.BytesRequested
			p.BytesLoaded += ev.BytesLoaded
		case obs.LoadEvent:
			loadedAt[ev.File] = jobs
			if everLoaded[ev.File] {
				c := churnOf(churn, ev.File)
				c.Reloads++
				s.Reloads++
			}
			everLoaded[ev.File] = true
		case obs.EvictEvent:
			if at, ok := loadedAt[ev.File]; ok {
				residency.Observe(float64(jobs - at))
				delete(loadedAt, ev.File)
			}
			churnOf(churn, ev.File).Evictions++
			if lastEvictJob >= 0 {
				interEvict.Observe(float64(jobs - lastEvictJob))
			}
			lastEvictJob = jobs
		case obs.JobServedEvent:
			jobs++
			if ev.Hit {
				win.HitRatio++
			}
			win.BytesRequested += ev.BytesRequested
			win.BytesLoaded += ev.BytesLoaded
			if jobs%opts.Window == 0 {
				flushWindow()
			}
		}
	}
	if jobs%opts.Window != 0 {
		flushWindow()
	}

	snap := reg.Snapshot()
	s.Residency, _ = snap.Get("residency_jobs")
	s.InterEviction, _ = snap.Get("inter_eviction_jobs")

	for _, p := range policies {
		s.Policies = append(s.Policies, *p)
	}
	sort.Slice(s.Policies, func(i, j int) bool { return s.Policies[i].Policy < s.Policies[j].Policy })

	for _, c := range churn {
		if c.Evictions > 1 {
			s.ChurnedFiles++
		}
		s.Churn = append(s.Churn, *c)
	}
	// Most-evicted first; file ID breaks ties so the listing is stable.
	sort.Slice(s.Churn, func(i, j int) bool {
		if s.Churn[i].Evictions != s.Churn[j].Evictions {
			return s.Churn[i].Evictions > s.Churn[j].Evictions
		}
		return s.Churn[i].File < s.Churn[j].File
	})
	if len(s.Churn) > opts.TopChurn {
		s.Churn = s.Churn[:opts.TopChurn]
	}
	return s
}

func churnOf(m map[int64]*FileChurn, file int64) *FileChurn {
	c := m[file]
	if c == nil {
		c = &FileChurn{File: file}
		m[file] = c
	}
	return c
}
