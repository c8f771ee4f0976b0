// Command srmd runs a Storage Resource Manager daemon: a disk cache managed
// by the OptFileBundle policy, exposed over the newline-delimited JSON TCP
// protocol of internal/srm. It also doubles as a protocol client so bundles
// can be staged from shell scripts.
//
// Server:
//
//	srmd -listen :7070 -cache-gb 10
//	srmd -listen :7070 -debug-addr :7071   # adds /metrics, /debug/pprof, /debug/flight
//	srmd -listen :7070 -flight-out flight.jsonl -slow 50ms
//
// The server always runs a span flight recorder: every request is traced,
// slow (-slow) or failed requests are kept at full fidelity and, with
// -flight-out, dumped as JSONL for offline analysis (fbtrace spans).
//
// Every field of the cache's statistics is an fbcache_* series on
// -debug-addr's /metrics; `srmd -connect ADDR -stats` prints the same
// snapshot over the wire protocol.
//
// Client:
//
//	srmd -connect localhost:7070 -addfile evt-energy:2147483648
//	srmd -connect localhost:7070 -stage evt-energy,evt-momentum
//	srmd -connect localhost:7070 -release t1
//	srmd -connect localhost:7070 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs"
	"fbcache/internal/obs/span"
	"fbcache/internal/srm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and dispatches to server or client mode. It returns the
// process exit code. The server path blocks until SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("srmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "", "serve on this address (e.g. :7070)")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/pprof and /debug/flight on this address")
		cacheGB   = fs.Float64("cache-gb", 10, "cache size in GB (server)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline for in-flight connections (server)")
		flightOut = fs.String("flight-out", "", "dump anomalous request spans to this JSONL file (server)")
		slow      = fs.Duration("slow", 100*time.Millisecond, "requests at least this slow are kept at full fidelity (server)")
		connect   = fs.String("connect", "", "act as a client of this server")
		addfile   = fs.String("addfile", "", "client: register name:sizeBytes")
		stage     = fs.String("stage", "", "client: stage comma-separated file names")
		release   = fs.String("release", "", "client: release a stage token")
		stats     = fs.Bool("stats", false, "client: print server statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *listen != "":
		return runServer(*listen, *debugAddr, *cacheGB, *drain, *flightOut, *slow, stdout, stderr)
	case *connect != "":
		return runClient(*connect, *addfile, *stage, *release, *stats, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "srmd: need -listen (server) or -connect (client); see -h")
		return 2
	}
}

// testStop, when non-nil, lets tests trigger the shutdown path without
// delivering a real signal to the test process.
var testStop chan struct{}

func runServer(addr, debugAddr string, cacheGB float64, drain time.Duration, flightOut string, slow time.Duration, stdout, stderr io.Writer) int {
	cat := bundle.NewCatalog()
	pol := core.New(bundle.Size(cacheGB*float64(bundle.GB)), cat.SizeFunc(), core.DefaultOptions())
	// The flight recorder is always on (disabled spans would hide exactly
	// the incidents it exists for); -flight-out adds the on-disk JSONL dump.
	opts := span.Options{SlowThreshold: slow}
	if flightOut != "" {
		sink, closer, err := span.FileDump(flightOut)
		if err != nil {
			fmt.Fprintf(stderr, "srmd: flight dump: %v\n", err)
			return 1
		}
		opts.Dump, opts.DumpCloser = sink, closer
		fmt.Fprintf(stdout, "srmd: dumping anomalous request spans to %s (slow >= %v)\n", flightOut, slow)
	}
	rec := span.New(opts)
	service := srm.New(pol, cat).WithSpans(rec)
	server, err := srm.Serve(service, addr)
	if err != nil {
		fmt.Fprintf(stderr, "srmd: %v\n", err)
		return 1
	}
	// Shutdown flushes the recorder's buffered dump after the drain window.
	server.CloseOnShutdown(rec)
	fmt.Fprintf(stdout, "srmd: serving OptFileBundle cache (%.1f GB) on %s\n", cacheGB, server.Addr())
	if debugAddr != "" {
		// Listen synchronously so ":0" resolves to a concrete port that can
		// be announced (the smoke test scrapes it), then serve in background.
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "srmd: debug listener: %v\n", err)
			if err := server.Shutdown(0); err != nil {
				fmt.Fprintf(stderr, "srmd: shutdown: %v\n", err)
			}
			return 1
		}
		fmt.Fprintf(stdout, "srmd: debug endpoints (metrics, pprof, flight) at http://%s/\n", ln.Addr())
		mux := obs.DebugMux(srm.NewRegistry(service))
		mux.Handle("/debug/flight", span.FlightHandler(rec))
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				// The listener dies with the process; report anything else.
				fmt.Fprintf(stderr, "srmd: debug http: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-testStop:
	}

	// Graceful teardown: stop accepting, give in-flight connections the
	// drain window to finish and release their bundles, then force-close
	// stragglers and close the SRM, which fails any stage still waiting on
	// pinned capacity (dropping a connection releases its leases too).
	fmt.Fprintf(stdout, "srmd: shutting down (draining up to %v)\n", drain)
	if err := server.Shutdown(drain); err != nil {
		fmt.Fprintf(stderr, "srmd: shutdown: %v\n", err)
	}
	fmt.Fprintln(stdout, "srmd: stopped")
	return 0
}

func runClient(addr, addfile, stage, release string, stats bool, stdout, stderr io.Writer) int {
	c, err := srm.Dial(addr)
	if err != nil {
		fmt.Fprintf(stderr, "srmd: %v\n", err)
		return 1
	}
	defer func() {
		_ = c.Close() // one-shot client; the commands below already reported
	}()

	did := false
	if addfile != "" {
		did = true
		name, sizeStr, ok := strings.Cut(addfile, ":")
		if !ok {
			fmt.Fprintln(stderr, "srmd: -addfile wants name:sizeBytes")
			return 2
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "srmd: bad size %q: %v\n", sizeStr, err)
			return 2
		}
		if err := c.AddFile(name, bundle.Size(size)); err != nil {
			fmt.Fprintf(stderr, "srmd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "added %s (%s)\n", name, bundle.Size(size))
	}
	if stage != "" {
		did = true
		files := strings.Split(stage, ",")
		token, hit, loaded, err := c.Stage(files...)
		if err != nil {
			fmt.Fprintf(stderr, "srmd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "staged token=%s hit=%v loaded=%v\n", token, hit, loaded)
		fmt.Fprintln(stdout, "note: the lease is dropped when this client exits; long-running jobs should keep the connection open")
	}
	if release != "" {
		did = true
		if err := c.Release(release); err != nil {
			fmt.Fprintf(stderr, "srmd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "released %s\n", release)
	}
	if stats {
		did = true
		st, err := c.Stats()
		if err != nil {
			fmt.Fprintf(stderr, "srmd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "policy          %s\n", st.Policy)
		fmt.Fprintf(stdout, "jobs            %d\n", st.Jobs)
		fmt.Fprintf(stdout, "hit ratio       %.4f\n", st.HitRatio)
		fmt.Fprintf(stdout, "byte miss ratio %.4f\n", st.ByteMissRatio)
		fmt.Fprintf(stdout, "bytes loaded    %v\n", st.BytesLoaded)
		fmt.Fprintf(stdout, "active jobs     %d\n", st.ActiveJobs)
		fmt.Fprintf(stdout, "pinned          %v\n", st.PinnedBytes)
		fmt.Fprintf(stdout, "cache           %v / %v\n", st.CacheUsed, st.CacheCapacity)
	}
	if !did {
		fmt.Fprintln(stderr, "srmd: client mode needs -addfile, -stage, -release or -stats")
		return 2
	}
	return 0
}
