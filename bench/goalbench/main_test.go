package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []nameWhy  `json:"workloads"`
	EndToEnd   []boundDef `json:"end_to_end"`
	PerLayer   []layerDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the
// metric and workload tables in this package from drifting apart.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := benchmarkFile{Command: got.Command, Paths: got.Paths, RunSeconds: got.RunSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, nameWhy{w.name, w.why})
	}
	var maxBound float64
	for _, d := range e2eMetrics {
		if d.Listed {
			want.EndToEnd = append(want.EndToEnd, boundDef{d.Name, d.Unit, d.Better, d.Bound})
			maxBound = max(maxBound, d.Bound)
		}
	}
	for _, d := range layerMetrics {
		want.PerLayer = append(want.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(got, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the definitions; expected:\n%s", expected)
	}
	if setup, _ := e2eDef("setup_s"); setup.Bound != maxBound {
		t.Errorf("setup_s bound %v is not the largest bound %v", setup.Bound, maxBound)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestSmoke runs every workload and every traced run on tiny selections
// through freshly built CLIs, so benchmark rot fails a test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	var out, errs bytes.Buffer
	if code := run(context.Background(), []string{"-smoke"}, &out, &errs); code != 0 {
		t.Fatalf("goalbench -smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "\n"+w.name+": ") {
			t.Errorf("smoke output has no %s section", w.name)
		}
	}
	if !strings.Contains(out.String(), "experiments.T1_s") || !strings.Contains(out.String(), "dist.accounted_share") {
		t.Errorf("smoke output lacks per-layer metrics:\n%s", out.String())
	}
}

// TestResultLine checks the one-line result a single-workload run ends
// with: exactly the listed end-to-end metrics, or every per-layer metric.
func TestResultLine(t *testing.T) {
	wr := &workloadResult{Correct: true, Attempted: 3, Metrics: make(map[string]*metricResult), Layers: map[string]float64{}}
	for _, d := range e2eMetrics {
		wr.Metrics[d.Name] = result(1, 2, 3)
	}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := printResultLine(&out, wr, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("result line %q: %v", out.String(), err)
		}
		var want []metricDef
		if traced {
			want = layerMetrics
		} else {
			for _, d := range e2eMetrics {
				if d.Listed {
					want = append(want, d)
				}
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || (!traced && m.Value != 2) {
				t.Errorf("traced=%v: %s = %+v, %v", traced, d.Name, m, ok)
			}
		}
	}
}
