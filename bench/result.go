package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value. Timing metrics are the median of several
// windows (srm) or passes (sim); Min, Max and Samples describe that spread
// and the number of observations behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// medianOf reports the median of per-window values with their range.
func medianOf(unit string, vals []float64, samples int) metric {
	if len(vals) == 0 {
		return metric{Unit: unit}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	return metric{Value: quantiles(vals, 0.5)[0], Unit: unit, Min: lo, Max: hi, Samples: samples}
}

func single(unit string, v float64) metric { return metric{Value: v, Unit: unit} }

// outcome is what one workload run produced: counts, every metric it
// measured, and the §1.2 quality values its output checks ran against.
type outcome struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	Quality   map[string]float64
}

// record is one run as written to a result file (-out): the workload, the
// seed, every metric with its spread, and the environment it ran in. The
// compare subcommand reads these records.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Quality   map[string]float64 `json:"quality"`
	Env       environment        `json:"env"`
}

// summaryLine is the last line of standard output: correct, attempted,
// failed and the named metrics, each reduced to value and unit.
func summaryLine(r record, names []string) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]vu, len(names))}
	for _, n := range names {
		m := r.Metrics[n]
		out.Metrics[n] = vu{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// readRecords reads every record of a result file (one JSON object per line).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		_ = f.Close() // the marshal error is the one to report
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// printTable writes a run's metrics as aligned text, sorted by name.
func printTable(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %-10s", n, m.Value, m.Unit)
		if m.Max > m.Min {
			fmt.Fprintf(w, " [%.6g .. %.6g]", m.Min, m.Max)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
}

// environment describes the machine and build a run measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	StoreFS    string `json:"store_fs"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	return environment{
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StoreFS:    fsType(os.TempDir()),
		Commit:     buildCommit(),
	}
}

// buildCommit reports the VCS revision the binary was built from, marked
// "+dirty" for a modified tree, or "unknown" outside a repository.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key matches, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}
