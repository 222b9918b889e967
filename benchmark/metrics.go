package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// metric is one named measurement. As is the name the workload's own
// vocabulary gives a uniform end-to-end metric (bfs_ms_p50 for op_ms_p50 on
// the Graph 500 workloads); N is the sample count behind a median or
// percentile.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	As    string  `json:"as,omitempty"`
}

// The end-to-end metrics BENCHMARK.json gates. Every workload reports all
// of them, each under the meaning its README row gives it. The tail latency
// op_ms_p95 did not repeat within 15% between seeds (README, "Demoted"), so
// it is reported ungated: as detail by the untraced run and in the per-layer
// list from the untraced stretch of the traced run.
const (
	mSetup      = "setup_s"
	mOpP50      = "op_ms_p50"
	mThroughput = "work_per_s"
	mOpP95      = "op_ms_p95"
)

// gate is one end-to-end metric's entry in BENCHMARK.json. bound is the
// share of the parent's median by which it may worsen before a change counts
// as a regression.
type gate struct {
	name, unit, better string
	bound              float64
}

var gates = []gate{
	{mSetup, "s", "lower", 0.25},
	{mOpP50, "ms", "lower", 0.25},
	{mThroughput, "1/s", "higher", 0.25},
}

var endToEndNames = []string{mSetup, mOpP50, mThroughput}

// perLayerNames are the per-layer metrics BENCHMARK.json lists: the ones
// every workload can report from its traced run. Workload-specific layer
// metrics (kernel components, batch histogram, ladder, ...) are printed, and
// written by -json, as detail.
var perLayerNames = []string{
	mOpP95,
	"core.kernel_share", "comm.collective_share", "comm.wait_share", "core.sync_share",
	"checkpoint.capture_share", "core.assemble_share", "core.other_share",
	"core.iterations_per_op", "core.edges_touched_per_op",
	"comm.calls_per_op", "comm.intra_bytes_per_op", "comm.inter_bytes_per_op",
	"wire.bytes_per_op", "checkpoint.bytes_per_op",
	"runtime.peak_rss_mb", "runtime.gc_pause_ms", "trace_overhead_share",
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// FailShare is Failed ÷ Attempted: errors, refusals (HTTP 429/5xx) and
	// correctness mismatches all count, and a refused or failed operation
	// also counts as missing any latency limit.
	FailShare float64  `json:"fail_share"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	// Detail holds the ungated numbers: workload-specific layer metrics,
	// ladder rates, input generation time, exact counts.
	Detail []metric `json:"detail,omitempty"`
	Roots  []int64  `json:"roots"`
}

func (r *result) endToEnd(name, as string, v float64, unit string, n int) {
	r.EndToEnd = append(r.EndToEnd, metric{Name: name, Value: v, Unit: unit, N: n, As: as})
}

func (r *result) layer(name string, v float64, unit string) {
	r.PerLayer = append(r.PerLayer, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) detail(name string, v float64, unit string, n int) {
	r.Detail = append(r.Detail, metric{Name: name, Value: v, Unit: unit, N: n})
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractLine is the object the driver reads from the last line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func (r *result) contractLine() contractLine {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
	for _, m := range ms {
		line.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	return line
}

func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	printMetrics(w, r.EndToEnd)
	if !r.Traced {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s (%d failed of %d attempted)\n", "fail_share", r.FailShare, "fraction", r.Failed, r.Attempted)
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "  -- per layer (traced run)")
		printMetrics(w, r.PerLayer)
	}
	if len(r.Detail) > 0 {
		fmt.Fprintln(w, "  -- detail (not gated)")
		printMetrics(w, r.Detail)
	}
	if shown := r.Roots[:min(len(r.Roots), 64)]; len(shown) < len(r.Roots) {
		fmt.Fprintf(w, "  roots (%d, all of them in -json): %v ...\n", len(r.Roots), shown)
	} else {
		fmt.Fprintf(w, "  roots (%d): %v\n", len(r.Roots), shown)
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		name := m.Name
		if m.As != "" {
			name = m.As + " (" + m.Name + ")"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-10s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
}

func printSummary(w io.Writer, results []*result) {
	fmt.Fprintln(w, "== summary")
	for _, r := range results {
		ms := r.EndToEnd
		if r.Traced {
			ms = r.PerLayer
		}
		for _, m := range ms {
			name := m.Name
			if m.As != "" {
				name = m.As
			}
			fmt.Fprintf(w, "  %-20s %-28s %14.6g %s\n", r.Workload, name, m.Value, m.Unit)
		}
		fmt.Fprintf(w, "  %-20s %-28s %14.6g fraction (%d of %d)\n", r.Workload, "fail_share", r.FailShare, r.Failed, r.Attempted)
	}
}

// percentile is the nearest-rank percentile of xs (p in (0,1]); xs need not
// be sorted. With fewer than 1/(1-p) samples it is the maximum, which the
// printed sample count makes visible; with none it is 0 (and n=0 is printed).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeMetrics reports the process-wide costs: ru_maxrss (KiB on Linux)
// and the GC's total stop-the-world pause.
func runtimeMetrics(r *result) {
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer("runtime.peak_rss_mb", rss, "MB")
	r.layer("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms")
}
