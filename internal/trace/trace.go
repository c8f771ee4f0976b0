// Package trace serializes workloads so that experiments can be archived,
// replayed and exchanged. Two formats are supported:
//
//   - a self-describing JSON format (one header object, then one line per
//     job) that is diff-friendly and editable by hand, and
//   - a compact gob format for large traces.
//
// A trace file fully determines a simulation input: file sizes, the request
// pool, and the job arrival order. Real SRM logs can be converted into this
// format to replay production workloads, addressing the paper's observation
// (§5.1) that no bundle-level traces were available to the authors.
package trace

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"fbcache/internal/bundle"
	"fbcache/internal/workload"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// header is the first JSON line of a trace file.
type header struct {
	Version   int               `json:"version"`
	CacheSize bundle.Size       `json:"cache_size"`
	FileSizes []bundle.Size     `json:"file_sizes"`
	Requests  [][]bundle.FileID `json:"requests"`
	Jobs      int               `json:"jobs"`
}

// jobLine is one subsequent JSON line per job.
type jobLine struct {
	Request int `json:"r"`
}

// WriteJSON writes w as JSON-lines: a header object then one line per job.
func WriteJSON(dst io.Writer, w *workload.Workload) error {
	bw := bufio.NewWriter(dst)
	h := header{
		Version:   FormatVersion,
		CacheSize: w.Spec.CacheSize,
		Jobs:      len(w.Jobs),
	}
	for _, f := range w.Catalog.Files() {
		h.FileSizes = append(h.FileSizes, f.Size)
	}
	for _, r := range w.Requests {
		h.Requests = append(h.Requests, []bundle.FileID(r))
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range w.Jobs {
		if err := enc.Encode(jobLine{Request: j}); err != nil {
			return fmt.Errorf("trace: write job: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSON reads a JSON-lines trace back into a workload. The returned
// workload's Spec carries only the cache size (the generator parameters are
// not stored; the trace itself is the ground truth).
func ReadJSON(src io.Reader) (*workload.Workload, error) {
	dec := json.NewDecoder(bufio.NewReader(src))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", h.Version, FormatVersion)
	}
	w, err := rebuild(h.CacheSize, h.FileSizes, h.Requests)
	if err != nil {
		return nil, err
	}
	for {
		var j jobLine
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: read job: %w", err)
		}
		if j.Request < 0 || j.Request >= len(w.Requests) {
			return nil, fmt.Errorf("trace: job references request %d of %d", j.Request, len(w.Requests))
		}
		w.Jobs = append(w.Jobs, j.Request)
	}
	if h.Jobs >= 0 && len(w.Jobs) != h.Jobs {
		return nil, fmt.Errorf("trace: header promises %d jobs, found %d", h.Jobs, len(w.Jobs))
	}
	return w, nil
}

// gobTrace is the compact binary schema.
type gobTrace struct {
	Version   int
	CacheSize bundle.Size
	FileSizes []bundle.Size
	Requests  [][]bundle.FileID
	Jobs      []int
}

// WriteGob writes w in the compact binary format.
func WriteGob(dst io.Writer, w *workload.Workload) error {
	g := gobTrace{Version: FormatVersion, CacheSize: w.Spec.CacheSize, Jobs: w.Jobs}
	for _, f := range w.Catalog.Files() {
		g.FileSizes = append(g.FileSizes, f.Size)
	}
	for _, r := range w.Requests {
		g.Requests = append(g.Requests, []bundle.FileID(r))
	}
	if err := gob.NewEncoder(dst).Encode(g); err != nil {
		return fmt.Errorf("trace: gob encode: %w", err)
	}
	return nil
}

// ReadFile reads the trace at path: gob when the name ends in .gob, JSON
// otherwise.
func ReadFile(path string) (*workload.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = f.Close() // read-only handle
	}()
	if strings.HasSuffix(path, ".gob") {
		return ReadGob(f)
	}
	return ReadJSON(f)
}

// ReadGob reads a binary trace.
func ReadGob(src io.Reader) (*workload.Workload, error) {
	var g gobTrace
	if err := gob.NewDecoder(src).Decode(&g); err != nil {
		return nil, fmt.Errorf("trace: gob decode: %w", err)
	}
	if g.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", g.Version, FormatVersion)
	}
	w, err := rebuild(g.CacheSize, g.FileSizes, g.Requests)
	if err != nil {
		return nil, err
	}
	for _, j := range g.Jobs {
		if j < 0 || j >= len(w.Requests) {
			return nil, fmt.Errorf("trace: job references request %d of %d", j, len(w.Requests))
		}
	}
	w.Jobs = g.Jobs
	return w, nil
}

func rebuild(cacheSize bundle.Size, fileSizes []bundle.Size, requests [][]bundle.FileID) (*workload.Workload, error) {
	if cacheSize <= 0 {
		return nil, fmt.Errorf("trace: non-positive cache size %d", cacheSize)
	}
	cat := bundle.NewCatalog()
	for _, s := range fileSizes {
		if s < 0 {
			return nil, fmt.Errorf("trace: negative file size %d", s)
		}
		cat.AddAnonymous(s)
	}
	w := &workload.Workload{
		Spec:    workload.Spec{CacheSize: cacheSize},
		Catalog: cat,
	}
	for i, ids := range requests {
		for _, f := range ids {
			if int(f) >= len(fileSizes) {
				return nil, fmt.Errorf("trace: request %d references file %d of %d", i, f, len(fileSizes))
			}
		}
		w.Requests = append(w.Requests, bundle.New(ids...))
	}
	return w, nil
}
