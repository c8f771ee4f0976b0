package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuLayers maps each cpu.share.* metric to the Go package whose frames
// count toward it. "gc" is matched by runtime function instead (gcRoots).
var cpuLayers = []struct{ key, pkg string }{
	{"core", "fbcache/internal/core"},
	{"history", "fbcache/internal/history"},
	{"cache", "fbcache/internal/cache"},
	{"bundle", "fbcache/internal/bundle"},
	{"srm", "fbcache/internal/srm"},
	{"store", "fbcache/internal/store"},
	{"span", "fbcache/internal/obs/span"},
	{"simulate", "fbcache/internal/simulate"},
	{"replicate", "fbcache/internal/replicate"},
	{"faults", "fbcache/internal/faults"},
	{"grid", "fbcache/internal/grid"},
	{"mss", "fbcache/internal/mss"},
	{"metrics", "fbcache/internal/metrics"},
	{"encoding_json", "encoding/json"},
	{"net", "net"},
	{"syscall", "syscall"},
}

// gcRoots are the runtime entry points of garbage-collection work: the
// background mark workers, mark assists charged to allocating goroutines,
// and the background sweeper and scavenger.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuProfile runs stretches of work under the CPU profiler, one profile
// file each, and attributes the samples of all of them to layers.
type cpuProfile struct {
	prefix string // path prefix of the profile files
	files  int
	counts map[string]float64 // samples with a frame in the layer
	total  float64
}

func newCPUProfile(prefix string) *cpuProfile {
	return &cpuProfile{prefix: prefix, counts: make(map[string]float64)}
}

// run profiles fn into the next profile file and adds its samples.
func (p *cpuProfile) run(fn func() error) error {
	if err := os.MkdirAll(filepath.Dir(p.prefix), 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s-%d.cpu.pprof", p.prefix, p.files)
	p.files++
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profiler error is the one to report
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	counts, total, err := layerSamples(path)
	if err != nil {
		return err
	}
	for k, v := range counts {
		p.counts[k] += v
	}
	p.total += total
	return nil
}

// shares reports, for each layer, the share of samples with at least one
// frame in it — the count `go tool pprof -traces` would give per package.
// Shares are inclusive, so they do not sum to 1.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers)+1)
	for _, l := range cpuLayers {
		out[l.key] = 0
	}
	out["gc"] = 0
	for k, v := range p.counts {
		if p.total > 0 {
			out[k] = v / p.total
		}
	}
	return out
}

// layerSamples reads a runtime/pprof CPU profile and counts, for each
// layer, the samples with at least one frame in it, and all samples.
func layerSamples(path string) (map[string]float64, float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}

	layerOf := func(fn string) string {
		for _, g := range gcRoots {
			if fn == g {
				return "gc"
			}
		}
		pkg := fn
		if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
			if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
				pkg = fn[:slash+dot]
			}
		} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
			pkg = fn[:dot]
		}
		for _, l := range cpuLayers {
			if pkg == l.pkg {
				return l.key
			}
		}
		return ""
	}
	// Resolve each location to the layers of its (possibly inlined) frames.
	locLayers := make(map[uint64][]string, len(p.locations))
	for id, funcs := range p.locations {
		for _, fid := range funcs {
			if l := layerOf(p.strings[p.functions[fid]]); l != "" {
				locLayers[id] = append(locLayers[id], l)
			}
		}
	}
	counts := make(map[string]float64, len(cpuLayers)+1)
	var total float64
	for _, s := range p.samples {
		total += float64(s.count)
		seen := make(map[string]bool)
		for _, loc := range s.locs {
			for _, l := range locLayers[loc] {
				if !seen[l] {
					seen[l] = true
					counts[l] += float64(s.count)
				}
			}
		}
	}
	return counts, total, nil
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name index into strings
	strings   []string
}

type profSample struct {
	locs  []uint64
	count int64
}

// parseProfile decodes the fields of perftools.profiles.Profile that
// layerSamples reads: sample (2), location (4), function (5), string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(sub, func(f, v uint64, sub []byte) error {
				switch f {
				case 1:
					var err error
					s.locs, err = appendPacked(s.locs, v, sub)
					return err
				case 2:
					if s.count == 0 {
						vals, err := appendPacked(nil, v, sub)
						if len(vals) > 0 {
							s.count = int64(vals[0])
						}
						return err
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(f, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(f, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.functions {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := key>>3, key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			end := uint64(n) + l
			sub, b = b[n:end], b[end:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, given either one unpacked
// value (sub == nil) or a packed payload.
func appendPacked(dst []uint64, v uint64, sub []byte) ([]uint64, error) {
	if sub == nil {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst, nil
}
