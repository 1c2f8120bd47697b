package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
)

// spec.json is the benchmark's self-description: per workload its loop
// type, client count or arrival rate, latency limit and tail
// percentile; per metric its unit and, for the per-layer metrics, the
// end-to-end metric and workload it should move. The rate and the
// limits are fixed there and never re-derived per run.
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "closed" (each client waits for its reply) or "open"
	// (requests are sent on a schedule).
	Loop string `json:"loop"`
	// Clients is the caller count of a closed loop and the connection
	// count of an open one; 0 means nproc.
	Clients int `json:"clients"`
	// RatePerS is the open loop's mean arrival rate.
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// PageImages is the gallery's images per DecodeBatch call.
	PageImages int `json:"page_images,omitempty"`
	// LimitMs is the latency limit within_slo_ratio counts against.
	LimitMs float64 `json:"limit_ms"`
	// TailPercentile is the percentile latency_tail_ms is reported at,
	// lowered at run time if the run has too few samples beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	// Gated workloads are the ones BENCHMARK.json lists, so every change
	// is measured on them; the others run on request.
	Gated bool `json:"gated,omitempty"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves and On say which end-to-end metric a per-layer metric should
	// move, and on which workload.
	Moves string `json:"moves,omitempty"`
	On    string `json:"on,omitempty"`
	// Def says how the metric is measured.
	Def string `json:"def,omitempty"`
}

type benchSpec struct {
	Platform  string         `json:"platform"`
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (*workloadSpec, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clients resolves the spec's client count (0 = nproc).
func (w *workloadSpec) clients() int {
	if w.Clients > 0 {
		return w.Clients
	}
	return runtime.GOMAXPROCS(0)
}
