// Command fbbench regenerates the paper's evaluation: Tables 1-2, Figures
// 5-9, the Theorem 4.1 bound study and the extended baseline comparison,
// plus the grid fault studies (degraded mode under a remote outage and
// transfer failures, and the replication-budget recovery sweep).
// Results render as aligned text on stdout and, with -out, as one CSV per
// experiment.
//
// Usage:
//
//	fbbench                       # everything, laptop scale
//	fbbench -jobs 10000           # paper-scale job counts
//	fbbench -experiment fig6      # one experiment
//	fbbench -experiment degraded  # grid fault study; deterministic per -seed
//	fbbench -out results/         # also write CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fbcache/internal/bundle"
	"fbcache/internal/experiment"
)

func main() {
	cfg, exp, out := parseFlags(os.Args[1:])
	tables, err := run(cfg, exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fbbench: %v\n", err)
		os.Exit(1)
	}

	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fbbench: render: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if out != "" {
			if err := writeCSV(out, t); err != nil {
				fmt.Fprintf(os.Stderr, "fbbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// parseFlags reads fbbench's command line into the experiment configuration,
// the lower-cased experiment name and the CSV output directory.
func parseFlags(args []string) (cfg experiment.Config, exp, out string) {
	fs := flag.NewFlagSet("fbbench", flag.ExitOnError)
	var (
		jobs     = fs.Int("jobs", 4000, "jobs per simulation point (paper used 10000)")
		seed     = fs.Int64("seed", 1, "workload generation seed")
		files    = fs.Int("files", 300, "file pool size")
		requests = fs.Int("requests", 150, "request pool size")
		cacheGB  = fs.Float64("cache-gb", 4, "reference cache size in GB")
		which    = fs.String("experiment", "all", "which experiment: all, table1, table2, fig5, fig6, fig7, fig8, fig9, bounds, baselines, hybrid, reqsize, saturation, sharding, overlap, degraded, replication")
		reps     = fs.Int("reps", 1, "average each Fig 6-8 point over N independent workloads")
		dir      = fs.String("out", "", "directory for CSV output (optional)")
		quiet    = fs.Bool("q", false, "suppress progress lines")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0
	cfg = experiment.Config{
		Seed:         *seed,
		Jobs:         *jobs,
		NumFiles:     *files,
		NumRequests:  *requests,
		CacheSize:    bundle.Size(*cacheGB * float64(bundle.GB)),
		Replications: *reps,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	return cfg, strings.ToLower(*which), *dir
}

func run(cfg experiment.Config, which string) ([]*experiment.Table, error) {
	one := func(t *experiment.Table, err error) ([]*experiment.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*experiment.Table{t}, nil
	}
	switch which {
	case "all":
		return cfg.All()
	case "table1":
		return []*experiment.Table{experiment.Table1()}, nil
	case "table2":
		return []*experiment.Table{experiment.Table2()}, nil
	case "fig5":
		return one(cfg.Figure5())
	case "fig6":
		return cfg.Figure6()
	case "fig7":
		return cfg.Figure7()
	case "fig8":
		return one(cfg.Figure8())
	case "fig9":
		return cfg.Figure9()
	case "bounds":
		return one(cfg.BoundStudy())
	case "baselines":
		return one(cfg.Baselines())
	case "hybrid":
		return one(cfg.HybridStudy())
	case "reqsize":
		return one(cfg.RequestSizeStudy())
	case "saturation":
		return one(cfg.SaturationStudy())
	case "sharding":
		return one(cfg.ShardingStudy())
	case "overlap":
		return one(cfg.OverlapStudy())
	case "degraded":
		return one(cfg.DegradedMode())
	case "replication":
		return one(cfg.ReplicationStudy())
	default:
		return nil, fmt.Errorf("unknown experiment %q", which)
	}
}

func writeCSV(dir string, t *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.CSV(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
