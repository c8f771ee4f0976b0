// Command tracegen generates a synthetic file-bundle workload (the §5.1
// model) and writes it as a trace file for later replay with cachesim
// -trace. JSON (default) is diff-friendly; -gob writes the compact binary
// form.
//
// Example:
//
//	tracegen -jobs 10000 -popularity zipf -o zipf10k.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fbcache/internal/bundle"
	"fbcache/internal/trace"
	"fbcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and generates the trace, writing the trace to -o (or
// stdout) and the summary line to stderr. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("o", "", "output path (default stdout)")
		useGob     = fs.Bool("gob", false, "write compact binary format")
		cacheGB    = fs.Float64("cache-gb", 4, "reference cache size in GB")
		files      = fs.Int("files", 300, "file pool size")
		requests   = fs.Int("requests", 150, "request pool size")
		jobs       = fs.Int("jobs", 10000, "number of job arrivals")
		popularity = fs.String("popularity", "uniform", "uniform or zipf")
		zipfS      = fs.Float64("zipf-s", 1, "Zipf exponent")
		maxFilePct = fs.Float64("max-file-pct", 0.05, "max file size as a fraction of the cache")
		bundleMax  = fs.Int("bundle-files", 6, "max files per request")
		seed       = fs.Int64("seed", 1, "generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	pop, err := workload.ParsePopularity(*popularity)
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		fs.Usage()
		return 2
	}
	w, err := workload.Generate(workload.Spec{
		Seed:           *seed,
		CacheSize:      bundle.Size(*cacheGB * float64(bundle.GB)),
		NumFiles:       *files,
		MinFileSize:    bundle.MB,
		MaxFilePct:     *maxFilePct,
		NumRequests:    *requests,
		MaxBundleFiles: *bundleMax,
		MaxBundleFrac:  0.5,
		Popularity:     pop,
		ZipfS:          *zipfS,
		Jobs:           *jobs,
	})
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tracegen: %v\n", err)
			return 1
		}
		defer func() {
			_ = f.Close() // write errors surface through write() below
		}()
		dst = f
	}
	write := trace.WriteJSON
	if *useGob {
		write = trace.WriteGob
	}
	if err := write(dst, w); err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "tracegen: %d files, %d requests, %d jobs (mean request %v, cache ~%.1f requests)\n",
		w.Catalog.Len(), len(w.Requests), len(w.Jobs), w.MeanRequestBytes(), w.CacheSizeInRequests())
	return 0
}
