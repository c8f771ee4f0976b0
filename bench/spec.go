package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the program reads: the run
// length, the workload names and every metric with its unit, direction and
// regression bound.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	var s benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &s); err != nil {
		return nil, err
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: missing run_seconds or metrics")
	}
	return &s, nil
}

// golden holds the §1.2 quality values the simulator workloads must
// reproduce bit for bit at the recorded seed (bench/golden.json).
type golden struct {
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func loadGolden(root string) (*golden, error) {
	var g golden
	if err := readJSON(filepath.Join(root, "bench", "golden.json"), &g); err != nil {
		return nil, err
	}
	return &g, nil
}

// check compares the quality values of one run against the golden ones.
// Only runs at the golden seed are checked; every golden key must be present
// and equal bit for bit.
func (g *golden) check(workload string, seed int64, quality map[string]float64) error {
	want, ok := g.Workloads[workload]
	if !ok || seed != g.Seed {
		return nil
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := quality[k]
		if !ok || math.Float64bits(got) != math.Float64bits(want[k]) {
			return fmt.Errorf("%s seed %d: %s = %v, golden %v", workload, seed, k, got, want[k])
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
