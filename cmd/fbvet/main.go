// Command fbvet runs the repository's custom static-analysis suite
// (internal/analyzers) over the packages matching the given patterns:
//
//	go run ./cmd/fbvet ./...          # whole repo, all analyzers
//	go run ./cmd/fbvet -run mapiter,floateq ./internal/core
//	go run ./cmd/fbvet -list          # describe the suite
//	go run ./cmd/fbvet -format=sarif ./... > fbvet.sarif
//	go run ./cmd/fbvet -validate fbvet.sarif
//
// fbvet exits 0 when no diagnostics are reported, 1 when findings exist,
// and 2 on load or usage errors. Findings can be suppressed — with a
// justification — by a `//fbvet:allow <analyzer>` comment on or directly
// above the flagged line.
//
// -format=sarif writes the findings to stdout as a SARIF 2.1.0 log (one
// run, one rule per analyzer in the suite) for CI code-scanning uploads;
// the exit-code contract is unchanged, and the human summary still goes
// to stderr. -validate structurally checks an existing SARIF file and
// exits 0 (valid) or 2.
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
		format   = flag.String("format", "text", "output format: text or sarif")
		validate = flag.String("validate", "", "validate a SARIF file and exit (no analysis)")
	)
	flag.Parse()

	if *describe {
		for _, a := range analyzers.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fbvet: %v\n", err)
			os.Exit(2)
		}
		if err := validateSARIF(data); err != nil {
			fmt.Fprintf(os.Stderr, "fbvet: %s: invalid SARIF: %v\n", *validate, err)
			os.Exit(2)
		}
		fmt.Printf("%s: valid SARIF %s\n", *validate, sarifVersion)
		return
	}

	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "fbvet: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
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

	switch *format {
	case "sarif":
		// Load reports absolute positions; Rel against an absolute root
		// is what makes the emitted URIs repo-relative.
		root, err := os.Getwd()
		if err != nil {
			root = "."
		}
		if err := writeSARIF(os.Stdout, suite, diags, root); err != nil {
			fmt.Fprintf(os.Stderr, "fbvet: writing SARIF: %v\n", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fbvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
