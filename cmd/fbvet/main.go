// Command fbvet runs the repository's custom static-analysis suite
// (internal/analyzers) over the packages matching the given patterns:
//
//	go run ./cmd/fbvet ./...          # whole repo, all analyzers
//	go run ./cmd/fbvet -run ndtaint,errflow ./internal/core
//	go run ./cmd/fbvet -list          # describe the suite
//
// fbvet exits 0 when no diagnostics are reported, 1 when findings exist,
// and 2 on load or usage errors. Findings can be suppressed — with a
// justification — by a `//fbvet:allow <analyzer>` comment on or directly
// above the flagged line.
//
// The suite includes the compiler-contract analyzers (noescape, inline,
// nobce), which read the escape/inline/bounds-check diagnostics of a
// `go build -gcflags='-m -m -d=ssa/check_bce/debug=1'` sweep over the same
// patterns. fbvet builds that sweep only when a selected analyzer needs it:
// `fbvet ./...` enforces everything, while `fbvet -run pkgdoc ./...` never
// compiles anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"fbcache/internal/analyzers"
)

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated analyzers to run (default: all)")
		describe = flag.Bool("list", false, "list available analyzers and exit")
	)
	flag.Parse()

	if *describe {
		for _, a := range analyzers.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := analyzers.All()
	if *runList != "" {
		var err error
		suite, err = analyzers.ByName(*runList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fbvet: %v\n", err)
			os.Exit(2)
		}
	}

	pkgs, err := analyzers.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	sw, err := analyzers.SweepFor(".", patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fbvet: %v\n", err)
		os.Exit(2)
	}
	var diags []analyzers.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyzers.Run(pkg, suite, sw)...)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fbvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
