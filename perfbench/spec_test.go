package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json restates spec.json: the same workloads with the same
// reasons, the same metrics with the same units and directions.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var gated []workloadSpec
	for _, s := range spec.Workloads {
		if s.Gated {
			gated = append(gated, s)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.json", len(b.Workloads), len(gated))
	}
	for i, w := range b.Workloads {
		s := gated[i]
		if w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: %q/%q vs spec %q/%q", i, w.Name, w.Why, s.Name, s.Why)
		}
	}
	for _, s := range spec.Workloads {
		if len(s.Why) > 200 || strings.Contains(s.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", s.Name)
		}
		if s.LimitMs <= 0 || s.TailPercentile <= 0 || (s.Loop != "open" && s.Loop != "closed") {
			t.Errorf("workload %s: incomplete spec %+v", s.Name, s)
		}
		if s.Loop == "open" && s.RatePerS <= 0 {
			t.Errorf("workload %s: open loop without a rate", s.Name)
		}
	}
	same := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.json", kind, len(got), len(want))
		}
		for i, m := range got {
			s := want[i]
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
				t.Errorf("%s %d: %+v vs spec %+v", kind, i, m, s)
			}
			if !metricName.MatchString(m.Name) || !unitName.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && (s.Moves == "" || s.On == "" || s.Def == "") {
				t.Errorf("%s: spec.json does not say what it should move, where, or how it is measured", m.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, spec.EndToEnd, true)
	same("per_layer", b.PerLayer, spec.PerLayer, false)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
