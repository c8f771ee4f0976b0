package fbcache

// One benchmark per paper artifact (Tables 1-2, Figures 5-9, the Theorem 4.1
// bound study) plus ablation benches for the design choices called out in
// DESIGN.md §4. Each bench iteration regenerates the artifact end to end at
// a reduced scale; `go test -bench=. -benchmem` therefore both times the
// harness and re-verifies that every experiment still runs. cmd/fbbench
// produces the full-scale tables.

import (
	"testing"

	"fbcache/internal/experiment"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// benchConfig is deliberately small: benches must iterate, not showcase.
func benchConfig() experiment.Config {
	c := experiment.DefaultConfig()
	c.Jobs = 400
	c.NumFiles = 100
	c.NumRequests = 60
	return c
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := experiment.Table1(); len(tab.Rows) != 7 {
			b.Fatal("bad table1")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := experiment.Table2(); len(tab.Rows) != 5 {
			b.Fatal("bad table2")
		}
	}
}

func BenchmarkFigure5HistoryLength(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6SmallFiles(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7LargeFiles(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8CacheSize(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9QueueLength(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.BoundStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinesTable(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.HybridStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequestSizeStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.RequestSizeStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaturationStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SaturationStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardingStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ShardingStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlapStudy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.OverlapStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

func ablationWorkload(b *testing.B) *Workload {
	b.Helper()
	spec := DefaultWorkloadSpec()
	spec.Jobs = 600
	spec.NumFiles = 120
	spec.NumRequests = 80
	spec.CacheSize = 2 * GB
	spec.MaxBundleFrac = 0.25
	spec.Popularity = Zipf
	w, err := Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchPolicyRun(b *testing.B, mk func(w *Workload) Policy) {
	w := ablationWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := simulate.Run(w, mk(w), simulate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if col.ByteMissRatio() <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

// Ablation baseline: the shipped configuration, whose policy always runs the
// paper's Note (resort) greedy. The literal Algorithm 1 is reachable only
// through core.Select (SelectOptions.Resort false); internal/solver compares
// the two there.
func BenchmarkAblationResortGreedy(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc())
	})
}

func BenchmarkAblationSeededK1(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithSeededSelection(1))
	})
}

// Ablation: cache-resident truncation vs windowed vs full history.
func BenchmarkAblationHistoryCacheResident(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithCacheResidentHistory())
	})
}

func BenchmarkAblationHistoryWindow64(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithHistoryWindow(64))
	})
}

func BenchmarkAblationHistoryFull(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithFullHistory())
	})
}

// Ablation: lazy vs literal eviction, and prefetch.
func BenchmarkAblationLiteralEvict(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithLiteralEviction())
	})
}

func BenchmarkAblationPrefetch(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc(), WithPrefetch())
	})
}

// Baseline policy throughput under the same workload, for context.
func BenchmarkAblationLandlord(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewLandlord(w.Spec.CacheSize, w.Catalog.SizeFunc())
	})
}

func BenchmarkAblationLRU(b *testing.B) {
	benchPolicyRun(b, func(w *Workload) Policy {
		return NewLRU(w.Spec.CacheSize, w.Catalog.SizeFunc())
	})
}

// Timed discrete-event simulation end to end.
func BenchmarkEventSimulation(b *testing.B) {
	w := ablationWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunEvents(w, NewCache(w.Spec.CacheSize, w.Catalog.SizeFunc()), EventOptions{
			ArrivalRate: 5,
			MSS:         DefaultMSSConfig(),
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Workload generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec := DefaultWorkloadSpec()
	spec.Jobs = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
