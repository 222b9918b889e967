package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesHarness pins BENCHMARK.json to the tables the harness
// reports from: same workloads, same gated metrics with their units and
// bounds, same per-layer metrics, same run length.
func TestSpecMatchesHarness(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, harness default %v", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads = %s, harness has %s", got, want)
	}
	if len(spec.EndToEnd) != len(gates) {
		t.Fatalf("%d end_to_end metrics, harness gates %d", len(spec.EndToEnd), len(gates))
	}
	for i, g := range gates {
		if m := spec.EndToEnd[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end_to_end[%d] = %+v, harness gate %+v", i, m, g)
		}
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if got, want := strings.Join(layers, ","), strings.Join(perLayerNames, ","); got != want {
		t.Errorf("per_layer = %s, harness reports %s", got, want)
	}
}

// TestSmoke runs every workload untraced and traced, and the layer
// microbenchmarks, in the -quick shape. It asserts what was reported and
// that everything was released; it asserts no timing.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	out := filepath.Join(t.TempDir(), "out")
	goroutines := runtime.NumGoroutine()

	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, wl := range spec.Workloads {
			var log bytes.Buffer
			res, err := runWorkload(&log, config{workload: wl.Name, seed: 7, seconds: 0.5, trace: traced, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Roots) == 0 {
				t.Errorf("%s: no roots recorded", wl.Name)
			}
			line := res.contractLine()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the result line, BENCHMARK.json lists %d", wl.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0) {
					t.Errorf("%s: %s = %v", wl.Name, m.Name, got.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not encode: %v", wl.Name, err)
			}
			if traced {
				if st, err := os.Stat(filepath.Join(out, wl.Name+".trace.jsonl")); err != nil || st.Size() == 0 {
					t.Errorf("%s: no span file written (%v)", wl.Name, err)
				}
			}
		}
	}

	layers := runLayers(io.Discard, true)
	seen := map[string]bool{}
	for _, m := range layers {
		if seen[m.Name] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			t.Errorf("layer metric %s = %v (duplicate or not a positive number)", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for _, prefix := range []string{"rmat.", "psort.", "partition.", "graph.", "bitmap.", "comm.inproc.", "comm.unix.", "wire.", "checkpoint.", "bfsd."} {
		found := false
		for name := range seen {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("no layer microbenchmark reported under %s", prefix)
		}
	}

	// Sockets, checkpoints and scratch directories all live under TMPDIR.
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d entries left in the scratch directory, first %s", len(left), left[0].Name())
	}
	// Listeners, batchers, wire endpoints and request goroutines all stop.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines still running, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}
