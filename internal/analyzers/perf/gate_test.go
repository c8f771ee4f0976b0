package perf_test

import (
	"testing"

	"fbcache/internal/analyzers"
	"fbcache/internal/analyzers/perf"
)

// TestRepoPerfGateClean sweeps the real repository with the compiler
// diagnostic flags and runs the performance analyzers (hotcomplexity and the
// contract analyzers) over it: every annotated hot-path contract must hold
// and every manifest pin must still be carried. The full-suite gate,
// TestRepoIsClean in internal/analyzers, covers the same ground among all
// other analyzers; this one keeps a perf regression reported under its own
// name.
func TestRepoPerfGateClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles repo packages")
	}
	root := "../../.."
	patterns := []string{"./..."}
	suite, err := analyzers.ByName("hotcomplexity,noescape,inline,nobce")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analyzers.Load(root, patterns)
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	sw, err := perf.SweepPackages(root, patterns)
	if err != nil {
		t.Fatalf("sweeping: %v", err)
	}
	for _, pkg := range pkgs {
		for _, d := range analyzers.Run(pkg, suite, sw) {
			t.Errorf("%s", d)
		}
	}
}
