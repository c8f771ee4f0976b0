package workload

import (
	"strings"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/stats"
)

func TestGenerateDefaultSpec(t *testing.T) {
	w, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Spec
	if w.Catalog.Len() != spec.NumFiles {
		t.Errorf("catalog has %d files, want %d", w.Catalog.Len(), spec.NumFiles)
	}
	if len(w.Requests) != spec.NumRequests {
		t.Errorf("%d requests, want %d", len(w.Requests), spec.NumRequests)
	}
	if len(w.Jobs) != spec.Jobs {
		t.Errorf("%d jobs, want %d", len(w.Jobs), spec.Jobs)
	}
	sizeOf := w.Catalog.SizeFunc()
	maxFile := bundle.Size(spec.MaxFilePct * float64(spec.CacheSize))
	budget := bundle.Size(spec.MaxBundleFrac * float64(spec.CacheSize))
	for _, f := range w.Catalog.Files() {
		if f.Size < spec.MinFileSize || f.Size > maxFile {
			t.Fatalf("file size %v outside [%v,%v]", f.Size, spec.MinFileSize, maxFile)
		}
	}
	for i, r := range w.Requests {
		if r.Len() == 0 || r.Len() > spec.MaxBundleFiles {
			t.Fatalf("request %d has %d files", i, r.Len())
		}
		if ts := r.TotalSize(sizeOf); ts > budget {
			t.Fatalf("request %d totals %v > budget %v", i, ts, budget)
		}
	}
	for i, j := range w.Jobs {
		if j < 0 || j >= len(w.Requests) {
			t.Fatalf("job %d references request %d", i, j)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec()
	spec.Jobs = 500
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Requests {
		if !a.Requests[i].Equal(b.Requests[i]) {
			t.Fatalf("request %d differs", i)
		}
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	// A different seed must change something.
	spec.Seed = 2
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical job sequences")
	}
}

func TestZipfJobsSkewed(t *testing.T) {
	spec := DefaultSpec()
	spec.Popularity = Zipf
	spec.Jobs = 20000
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(w.Requests))
	for _, j := range w.Jobs {
		counts[j]++
	}
	// Rank 0 should dominate the tail decisively under 1/i.
	if counts[0] <= counts[len(counts)-1]*3 {
		t.Errorf("rank 0 count %d not clearly above tail %d", counts[0], counts[len(counts)-1])
	}
	// Uniform for contrast: max/min ratio should be modest.
	spec.Popularity = Uniform
	w2, _ := Generate(spec)
	counts2 := make([]int64, len(w2.Requests))
	for _, j := range w2.Jobs {
		counts2[j]++
	}
	probs := make([]float64, len(counts2))
	for i := range probs {
		probs[i] = 1 / float64(len(counts2))
	}
	// chi-square df=199; 99.99th pct ≈ 292. Allow slack.
	if chi2 := stats.ChiSquare(counts2, probs); chi2 > 350 {
		t.Errorf("uniform jobs chi-square = %v", chi2)
	}
}

func TestSpecValidation(t *testing.T) {
	base := DefaultSpec()
	mutations := map[string]func(*Spec){
		"cache":       func(s *Spec) { s.CacheSize = 0 },
		"files":       func(s *Spec) { s.NumFiles = 0 },
		"minsize":     func(s *Spec) { s.MinFileSize = 0 },
		"pct-zero":    func(s *Spec) { s.MaxFilePct = 0 },
		"pct-big":     func(s *Spec) { s.MaxFilePct = 1.5 },
		"pct-tiny":    func(s *Spec) { s.MaxFilePct = 1e-9 },
		"requests":    func(s *Spec) { s.NumRequests = 0 },
		"bundlefiles": func(s *Spec) { s.MaxBundleFiles = 0 },
		"bundlefrac":  func(s *Spec) { s.MaxBundleFrac = 0 },
		"zipfs":       func(s *Spec) { s.Popularity = Zipf; s.ZipfS = -1 },
		"jobs":        func(s *Spec) { s.Jobs = -1 },
	}
	for name, mut := range mutations {
		s := base
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad spec", name)
		}
		if _, err := Generate(s); err == nil {
			t.Errorf("%s: Generate accepted bad spec", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
}

func TestTinyPoolsStillGenerate(t *testing.T) {
	spec := DefaultSpec()
	spec.NumFiles = 2
	spec.NumRequests = 10 // forces duplicate bundles
	spec.MaxBundleFiles = 2
	spec.Jobs = 50
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Requests) != 10 {
		t.Errorf("requests = %d", len(w.Requests))
	}
}

func TestMeanRequestBytesAndCacheSizeInRequests(t *testing.T) {
	spec := DefaultSpec()
	spec.Jobs = 10
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mean := w.MeanRequestBytes()
	if mean <= 0 {
		t.Fatalf("mean = %v", mean)
	}
	csr := w.CacheSizeInRequests()
	want := float64(spec.CacheSize) / float64(mean)
	if csr != want {
		t.Errorf("CacheSizeInRequests = %v, want %v", csr, want)
	}
	if csr < 1 {
		t.Errorf("default spec cache holds %v requests — too small for experiments", csr)
	}
}

func TestJobBundle(t *testing.T) {
	spec := DefaultSpec()
	spec.Jobs = 5
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Jobs {
		if !w.JobBundle(i).Equal(w.Requests[w.Jobs[i]]) {
			t.Fatalf("JobBundle(%d) mismatch", i)
		}
	}
}

func TestPopularityString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipf.String() != "zipf" {
		t.Error("Popularity.String broken")
	}
	if Popularity(5).String() != "Popularity(5)" {
		t.Error("unknown Popularity.String broken")
	}
}

func TestParsePopularity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Popularity
		ok   bool
	}{
		{"uniform", Uniform, true},
		{"Uniform", Uniform, true},
		{"zipf", Zipf, true},
		{"ZIPF", Zipf, true},
		{"zpif", 0, false},
		{"", 0, false},
		{" zipf", 0, false},
	} {
		got, err := ParsePopularity(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParsePopularity(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParsePopularity(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := DefaultSpec()
	spec.Jobs = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDescribe(t *testing.T) {
	spec := DefaultSpec()
	spec.Jobs = 1000
	spec.Popularity = Zipf
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := Describe(w)
	if d.Files != spec.NumFiles || d.Requests != spec.NumRequests || d.Jobs != 1000 {
		t.Errorf("counts: %+v", d)
	}
	if d.TotalBytes != w.Catalog.TotalSize() {
		t.Errorf("TotalBytes = %v", d.TotalBytes)
	}
	if d.BundleFiles.Mean() < 1 || d.BundleFiles.Mean() > float64(spec.MaxBundleFiles) {
		t.Errorf("mean bundle files = %v", d.BundleFiles.Mean())
	}
	if d.MaxDegree < 1 {
		t.Errorf("MaxDegree = %d", d.MaxDegree)
	}
	if d.DistinctJobs < 1 || d.DistinctJobs > spec.NumRequests {
		t.Errorf("DistinctJobs = %d", d.DistinctJobs)
	}
	// Zipf concentration: the top request dominates a uniform share.
	if d.TopShare <= 1.0/float64(spec.NumRequests) {
		t.Errorf("TopShare = %v not concentrated", d.TopShare)
	}
	if d.Top10Share < d.TopShare || d.Top10Share > 1 {
		t.Errorf("Top10Share = %v", d.Top10Share)
	}
	var sb strings.Builder
	d.Render(&sb)
	for _, want := range []string{"files", "bundle size", "max degree", "top request"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Render missing %q:\n%s", want, sb.String())
		}
	}
}

func TestDescribeEmptyJobs(t *testing.T) {
	spec := DefaultSpec()
	spec.Jobs = 0
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := Describe(w)
	if d.Jobs != 0 || d.TopShare != 0 || d.DistinctJobs != 0 {
		t.Errorf("%+v", d)
	}
}

func TestClusteredBundles(t *testing.T) {
	spec := DefaultSpec()
	spec.NumFiles = 100
	spec.Clusters = 10
	spec.NumRequests = 60
	spec.Jobs = 10
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every request's files must share one cluster (id % Clusters).
	for i, r := range w.Requests {
		c := int(r[0]) % spec.Clusters
		for _, f := range r {
			if int(f)%spec.Clusters != c {
				t.Fatalf("request %d spans clusters: %v", i, r)
			}
		}
	}
	// Clustering leaves expected file degree unchanged (same incidences
	// over the same pool) but concentrates CO-OCCURRENCE: many more request
	// pairs share two or more files.
	unclustered := spec
	unclustered.Clusters = 0
	w2, err := Generate(unclustered)
	if err != nil {
		t.Fatal(err)
	}
	overlapPairs := func(w *Workload) int {
		n := 0
		for i := 0; i < len(w.Requests); i++ {
			for j := i + 1; j < len(w.Requests); j++ {
				if w.Requests[i].Intersect(w.Requests[j]).Len() >= 2 {
					n++
				}
			}
		}
		return n
	}
	pc, pu := overlapPairs(w), overlapPairs(w2)
	t.Logf("request pairs sharing >=2 files: clustered %d, unclustered %d", pc, pu)
	if pc <= pu {
		t.Errorf("clustering did not concentrate co-occurrence: %d <= %d", pc, pu)
	}
	// Validation bounds.
	bad := spec
	bad.Clusters = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative clusters accepted")
	}
	bad.Clusters = spec.NumFiles + 1
	if err := bad.Validate(); err == nil {
		t.Error("clusters > files accepted")
	}
}
