package graph500

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sssp"
	"repro/internal/stats"
)

// WorkloadNames lists the workloads bfsbench can run on the 1.5D fast path,
// in canonical order.
var WorkloadNames = []string{"bfs", "wcc", "kcore", "sssp"}

// ParseWorkloads splits a comma-separated workload list ("bfs,wcc"),
// validates every name against WorkloadNames and drops duplicates while
// preserving first-mention order.
func ParseWorkloads(list string) ([]string, error) {
	known := make(map[string]bool, len(WorkloadNames))
	for _, n := range WorkloadNames {
		known[n] = true
	}
	seen := make(map[string]bool)
	var out []string
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("graph500: unknown workload %q (want one of %s)",
				name, strings.Join(WorkloadNames, ", "))
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("graph500: empty workload list")
	}
	return out, nil
}

// recorderCommBytes sums a recorder's collective payload traffic over every
// kind and locality.
func recorderCommBytes(rec *stats.Recorder) int64 {
	if rec == nil {
		return 0
	}
	vol := rec.CommBreakdown()
	intra, inter := vol.Totals()
	return intra + inter
}

// WorkloadEntry renders the BFS benchmark summary as its per-workload report
// row: GTEPS is the harmonic-mean traversal rate, the same statistic as the
// document's headline summary.
func (b *BenchmarkSummary) WorkloadEntry() report.WorkloadEntry {
	return report.WorkloadEntry{
		Workload:   "bfs",
		GTEPS:      b.HarmonicTEPS / 1e9,
		Seconds:    b.MeanSeconds,
		Iterations: b.Iterations,
		CommBytes:  recorderCommBytes(&b.Recorder),
		Retries:    b.Retries,
	}
}

// Fill copies the BFS benchmark summary into the report's headline, breakdown
// and resilience inputs.
func (b *BenchmarkSummary) Fill(in *report.Inputs) {
	in.HarmonicTEPS = b.HarmonicTEPS
	in.MeanTEPS = b.MeanTEPS
	in.MinTEPS = b.MinTEPS
	in.MaxTEPS = b.MaxTEPS
	in.MeanSeconds = b.MeanSeconds
	in.Traversed = b.TotalTraversed
	in.Iterations = b.Iterations
	in.Recorder = &b.Recorder
	in.Directions = b.Directions
	in.Faults = b.Faults
	in.Retries = b.Retries
	in.RecoveryWall = b.RecoveryTime
	in.Recovery = b.Recovery
}

// BenchWorkload runs one ported analytics workload (wcc, kcore or sssp) once
// over the runner's partition on the engine's fast path and returns its
// report entry. GTEPS is edges touched per second — the iterative workloads
// have no Graph 500 traversal statistic.
// The SSSP result is checked against the shortest-path optimality conditions
// before it is reported; kcoreK is the peeling threshold and weightSeed keys
// the deterministic SSSP edge weights (the root is the first vertex with an
// edge).
func (r *Runner) BenchWorkload(name string, kcoreK int64, weightSeed uint64) (report.WorkloadEntry, error) {
	entry := report.WorkloadEntry{Workload: name}
	var run func() (*core.WorkloadResult, error)
	switch name {
	case "wcc":
		run = r.Engine.RunWCC
	case "kcore":
		run = func() (*core.WorkloadResult, error) { return r.Engine.RunKCore(kcoreK) }
	case "sssp":
		root := int64(-1)
		for v, d := range r.Engine.Part.Degrees {
			if d > 0 {
				root = int64(v)
				break
			}
		}
		if root < 0 {
			return entry, fmt.Errorf("graph500: no vertex with an edge to root SSSP at")
		}
		run = func() (*core.WorkloadResult, error) { return r.Engine.RunSSSP(root, weightSeed, 0) }
	default:
		return entry, fmt.Errorf("graph500: BenchWorkload does not run %q", name)
	}
	res, gteps, err := benchRate(run)
	if err != nil {
		return entry, err
	}
	entry.GTEPS = gteps
	entry.Seconds = res.Time.Seconds()
	entry.Iterations = int64(res.Iterations)
	entry.CommBytes = recorderCommBytes(res.Recorder)
	entry.Retries = res.Retries
	switch name {
	case "wcc":
		entry.Components = res.Components
	case "kcore":
		entry.K = res.K
		entry.CoreSize = res.CoreSize
	case "sssp":
		if err := sssp.ValidateResult(r.graph.NumVertices, r.graph.Edges, weightSeed, &sssp.Result{
			Root: res.Root, Dist: res.Dist, Parent: res.Parent,
		}); err != nil {
			return entry, err
		}
		entry.Root = res.Root
		entry.Relaxations = res.Relaxations
	}
	return entry, nil
}

// benchRate measures a workload's edge-scan throughput, repeating runs that
// finish under 50ms (k-core settles in a couple of peel rounds at bench
// scales) until enough wall time accumulates for the rate to mean something;
// the first run's result carries the reported outputs — the workloads are
// deterministic, so the repeats change nothing but the clock.
func benchRate(run func() (*core.WorkloadResult, error)) (*core.WorkloadResult, float64, error) {
	first, err := run()
	if err != nil {
		return nil, 0, err
	}
	edges := first.Recorder.TotalEdges()
	total := first.Time
	for reps := 1; total < 50*time.Millisecond && reps < 64; reps++ {
		res, err := run()
		if err != nil {
			return nil, 0, err
		}
		edges += res.Recorder.TotalEdges()
		total += res.Time
	}
	var gteps float64
	if total > 0 {
		gteps = float64(edges) / total.Seconds() / 1e9
	}
	return first, gteps, nil
}
