package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fbcache/internal/obs/analyze"
	"fbcache/internal/obs/span"
	"fbcache/internal/obs/traceio"
	"fbcache/internal/workload"
)

var workloadNames = []string{"srm-hit", "srm-miss-store", "sim-paper", "sim-grid"}

func tinyConfig(t *testing.T, name string, seed int64, trace bool) runConfig {
	return runConfig{
		workload: name, seed: seed, seconds: 0.2,
		trace: trace, traceDir: t.TempDir(), tiny: true,
	}
}

func testSpec(t *testing.T) (*benchSpec, *golden) {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec, gold
}

// TestBenchmarkDeclaresTheWorkloads keeps BENCHMARK.json and the program
// in step: every declared workload runs here and nothing else does.
func TestBenchmarkDeclaresTheWorkloads(t *testing.T) {
	spec, _ := testSpec(t)
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", got, workloadNames)
	}
}

// TestEveryWorkloadEmitsItsMetrics runs each workload at tiny scale, untraced
// and traced, and checks that every metric BENCHMARK.json declares for that
// kind of run is emitted with its unit and a finite value.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	spec, gold := testSpec(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, 1, trace)
			rec, err := runOne(cfg, spec, gold)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			decls := spec.EndToEnd
			if trace {
				decls = spec.PerLayer
			}
			for _, d := range decls {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok || m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s = %v %q, want unit %q", name, trace, d.Name, m.Value, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: %s = %v, want a positive value", name, d.Name, m.Value)
				}
			}
			line, err := summaryLine(rec, declared(spec, trace))
			if err != nil || !bytes.HasPrefix(line, []byte(`{"correct":true,"attempted":`)) {
				t.Errorf("%s: summary line %s (%v)", name, line, err)
			}
			if trace && strings.HasPrefix(name, "srm-") {
				checkSpanFile(t, filepath.Join(cfg.traceDir, name+"-seed1.spans.jsonl"))
			}
		}
	}
}

// checkSpanFile loads a traced run's spans the way fbtrace spans does and
// checks that each kept stage is one whole tree: the client's RPC span,
// the server's stage root under it, and the admission leg under that.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	events, skipped, err := traceio.ReadFile(path, traceio.Strict)
	if err != nil || skipped != 0 {
		t.Fatalf("%s: %v (%d skipped)", path, err, skipped)
	}
	rep := analyze.Spans(events, 5)
	if rep.Requests == 0 {
		t.Fatalf("%s: no request trees", path)
	}
	child := func(n *span.Node, op string) *span.Node {
		for _, c := range n.Children {
			if c.Op == op {
				return c
			}
		}
		return nil
	}
	stages := 0
	for _, root := range rep.Trees {
		if root.Op != "rpc.stage" {
			continue
		}
		stages++
		server := child(root, "stage")
		if server == nil || child(server, "stage.admit") == nil {
			t.Fatalf("%s: request %d is not a whole rpc.stage > stage > stage.admit tree", path, root.Req)
		}
	}
	if stages == 0 {
		t.Fatalf("%s: no rpc.stage trees among %d", path, rep.Requests)
	}
}

// TestSimQualityIsDeterministic runs each simulator workload twice on one
// seed: the §1.2 quality values must agree bit for bit.
func TestSimQualityIsDeterministic(t *testing.T) {
	spec, gold := testSpec(t)
	for _, name := range []string{"sim-paper", "sim-grid"} {
		a, err := runOne(tinyConfig(t, name, 3, false), spec, gold)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(tinyConfig(t, name, 3, false), spec, gold)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Quality) < 2 || sameQuality(a.Quality, b.Quality) != nil || sameQuality(b.Quality, a.Quality) != nil {
			t.Errorf("%s: quality %v then %v", name, a.Quality, b.Quality)
		}
	}
}

// TestSeedDrivesTheTrace checks that each workload's inputs are a function
// of the seed: equal for equal seeds, different for different ones.
func TestSeedDrivesTheTrace(t *testing.T) {
	specs := map[string]workload.Spec{
		"srm-hit": srmHit.spec, "srm-miss-store": srmMissStore.spec,
		"sim-paper": simPaper.spec, "sim-grid": simGrid.spec,
	}
	for _, name := range workloadNames {
		gen := func(seed int64) *workload.Workload {
			s := specs[name]
			s.Seed, s.Jobs = seed, 500
			w, err := workload.Generate(s)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		a, b, c := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a.Jobs, b.Jobs) || !reflect.DeepEqual(a.Requests, b.Requests) {
			t.Errorf("%s: same seed, different trace", name)
		}
		if reflect.DeepEqual(a.Jobs, c.Jobs) && reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: seeds 1 and 2 give the same trace", name)
		}
	}
}

// TestGoldenCheck: a run at the golden seed must reproduce the golden values
// exactly; other seeds are not checked.
func TestGoldenCheck(t *testing.T) {
	g := &golden{Seed: 1, Workloads: map[string]map[string]float64{"sim-paper": {"hit_ratio": 0.25}}}
	if err := g.check("sim-paper", 1, map[string]float64{"hit_ratio": 0.25}); err != nil {
		t.Error(err)
	}
	if err := g.check("sim-paper", 1, map[string]float64{"hit_ratio": math.Nextafter(0.25, 1)}); err == nil {
		t.Error("a one-ulp difference passed the golden check")
	}
	if err := g.check("sim-paper", 1, map[string]float64{}); err == nil {
		t.Error("a missing quality value passed the golden check")
	}
	if err := g.check("sim-paper", 2, map[string]float64{"hit_ratio": 0.5}); err != nil {
		t.Error(err)
	}
}

// TestRunFailsWithoutTheRepository: outside a checkout (no BENCHMARK.json
// beside the program) a run fails without printing a result.
func TestRunFailsWithoutTheRepository(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", t.TempDir(), "-workload", "sim-paper"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"-root", "..", "-workload", "nope", "-seconds", "0.1"}, &stdout, &stderr); code == 0 {
		t.Errorf("unknown workload: exit %d", code)
	}
}

// TestCPUShares profiles sim-paper passes: every layer share lies in
// [0, 1] and the selection core shows up.
func TestCPUShares(t *testing.T) {
	prof := newCPUProfile(filepath.Join(t.TempDir(), "sim-paper"))
	s := &simStack{wl: simPaper, jobs: 8000}
	if err := s.addTrace(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := prof.run(func() error {
		_, err := s.replay(0, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	shares := prof.shares()
	if len(shares) != len(cpuLayers)+1 || prof.total == 0 {
		t.Fatalf("%d shares over %v samples, want %d", len(shares), prof.total, len(cpuLayers)+1)
	}
	for k, v := range shares {
		if v < 0 || v > 1 {
			t.Errorf("cpu.share.%s = %v", k, v)
		}
	}
	if shares["core"] == 0 {
		t.Error("no profile sample in the core package")
	}
}
