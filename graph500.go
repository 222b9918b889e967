// Package graph500 is the public API of this reproduction of "Scaling Graph
// Traversal to 281 Trillion Edges with 40 Million Cores" (PPoPP '22): a
// distributed-memory breadth-first search built on 3-level degree-aware 1.5D
// graph partitioning, sub-iteration direction optimization and delayed
// parent reduction, running on a message-passing runtime that stands in for
// MPI (goroutine ranks in one process, or processes over sockets).
//
// Typical use:
//
//	g := graph500.Generate(graph500.GenConfig{Scale: 18, Seed: 42})
//	r, err := graph500.New(g, graph500.Config{Ranks: 16})
//	res, err := r.RunValidated(rootVertex)
//	fmt.Println(res.GTEPS())
//
// The packages under internal/ hold the substrates: the R-MAT generator,
// the partitioner, the engine and its workloads, the rank runtime, and the
// report schema. This package wires them together behind a small surface.
package graph500

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/rmat"
	"repro/internal/topology"
	"repro/internal/validate"
	"repro/internal/xrand"
)

// ErrNoConvergence re-exports the engine's non-convergence sentinel: a run
// that exhausted MaxIterations, or exhausted its fault retries, returns an
// error satisfying errors.Is(err, ErrNoConvergence).
var ErrNoConvergence = core.ErrNoConvergence

// ErrDrained re-exports the engine's graceful-drain sentinel: a run stopped
// by Config.Drain returns an error satisfying errors.Is(err, ErrDrained),
// with its checkpoint scope retained for a later resume (Result.
// CheckpointScope / Runner.Engine.SetResumeFrom).
var ErrDrained = core.ErrDrained

// Edge is one undirected edge. Self loops and duplicates are permitted, as
// in the Graph 500 generator output.
type Edge = rmat.Edge

// Graph bundles a vertex count with its undirected edge list.
type Graph struct {
	NumVertices int64
	Edges       []Edge
}

// GenConfig configures Graph 500 R-MAT generation.
type GenConfig struct {
	Scale      int    // vertices = 1<<Scale
	EdgeFactor int    // edges = EdgeFactor<<Scale; 0 = the spec's 16
	Seed       uint64 // deterministic stream seed
}

// Generate produces a Graph 500 specification graph (R-MAT, A=0.57,
// B=C=0.19, D=0.05, scrambled vertex IDs).
func Generate(cfg GenConfig) Graph {
	rc := rmat.Config{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}
	return Graph{NumVertices: rc.NumVertices(), Edges: rmat.Generate(rc)}
}

// FromEdges wraps an existing edge list as a Graph.
func FromEdges(n int64, edges []Edge) Graph {
	return Graph{NumVertices: n, Edges: edges}
}

// DirectionMode re-exports the engine's direction policies.
type DirectionMode = core.DirectionMode

// Direction policies.
const (
	SubIterationDirections  = core.ModeSubIteration   // the paper's optimization
	WholeIterationDirection = core.ModeWholeIteration // vanilla Beamer-style
	PushOnly                = core.ModePushOnly
	PullOnly                = core.ModePullOnly
)

// SparseMode re-exports the engine's sparse-tail collective policy.
type SparseMode = core.SparseMode

// Sparse-tail policies.
const (
	// SparseAuto adaptively ships tail-iteration messages as sparse update
	// triples over one allgather when frontiers collapse (the default).
	SparseAuto = core.SparseAuto
	// SparseOff forces the dense per-destination exchanges everywhere.
	SparseOff = core.SparseOff
	// SparseAlways forces the sparse exchange for every eligible push
	// component (stress/verification aid).
	SparseAlways = core.SparseAlways
)

// RecoveryMode re-exports the engine's world-rebuild strategy after a
// fail-stop rank death.
type RecoveryMode = core.RecoveryMode

// Recovery modes.
const (
	// ShrinkRecovery re-homes dead rank slots onto surviving nodes (no spare
	// hardware needed; survivors absorb the load).
	ShrinkRecovery = core.RecoverShrink
	// RestoreRecovery spawns replacement ranks on fresh spare nodes,
	// restoring the original mesh capacity.
	RestoreRecovery = core.RecoverRestore
)

// Thresholds re-exports the degree classification cut-offs.
type Thresholds = partition.Thresholds

// Mesh re-exports the process-mesh shape.
type Mesh = topology.Mesh

// Config is the runtime configuration of a Runner: the engine's options
// (core.Options documents every field). Zero fields take the engine's
// defaults; Ranks or Mesh is required.
type Config = core.Options

// Runner holds a partitioned graph ready to traverse.
type Runner struct {
	Engine *core.Engine
	graph  Graph
}

// Result re-exports the engine's run result.
type Result = core.Result

// BatchResult is one batched multi-source sweep's output (see
// core.BatchResult).
type BatchResult = core.BatchResult

// New partitions the graph and prepares the rank world.
func New(g Graph, cfg Config) (*Runner, error) {
	eng, err := core.NewEngine(g.NumVertices, g.Edges, cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{Engine: eng, graph: g}, nil
}

// Graph returns the runner's input graph.
func (r *Runner) Graph() Graph { return r.graph }

// Run executes one BFS from root.
func (r *Runner) Run(root int64) (*Result, error) { return r.Engine.Run(root) }

// RunBatch executes one batched multi-source sweep over all roots: every
// collective is amortized across the batch, and each query's result is
// bit-identical to a solo Run from the same root.
func (r *Runner) RunBatch(roots []int64) (*BatchResult, error) { return r.Engine.RunBatch(roots) }

// RunValidated executes one BFS and validates the result against the
// Graph 500 specification checks, failing loudly on any violation.
func (r *Runner) RunValidated(root int64) (*Result, error) {
	res, err := r.Engine.Run(root)
	if err != nil {
		return nil, err
	}
	if _, err := validate.BFS(r.graph.NumVertices, r.graph.Edges, root, res.Parent); err != nil {
		return nil, fmt.Errorf("graph500: result failed validation: %w", err)
	}
	return res, nil
}

// Degrees returns the per-vertex undirected degree (self loops excluded, as
// partitioned).
func (r *Runner) Degrees() []int64 { return r.Engine.Part.Degrees }

// SampleRoots picks count distinct roots with nonzero degree, as the
// Graph 500 benchmark requires ("search keys must be uniformly sampled from
// the vertices with at least one edge"). count must be at least 1.
func (r *Runner) SampleRoots(count int, seed uint64) ([]int64, error) {
	if count < 1 {
		return nil, fmt.Errorf("graph500: root count %d, want at least 1", count)
	}
	deg := r.Engine.Part.Degrees
	rng := xrand.NewXoshiro256(seed)
	seen := make(map[int64]bool)
	var roots []int64
	for attempts := 0; len(roots) < count; attempts++ {
		if attempts > 1000*count {
			return nil, fmt.Errorf("graph500: cannot find %d connected roots", count)
		}
		v := int64(rng.Uint64n(uint64(len(deg))))
		if deg[v] > 0 && !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots, nil
}

// BenchmarkSummary accumulates a Graph 500 style multi-root BFS run (see
// report.BenchmarkSummary); the report document and the official
// statistics block both read it.
type BenchmarkSummary = report.BenchmarkSummary

// Benchmark runs BFS from count sampled roots (validating each) and returns
// Graph 500 statistics. The spec samples 64 roots; tests use fewer.
func (r *Runner) Benchmark(count int, seed uint64) (*BenchmarkSummary, error) {
	roots, err := r.SampleRoots(count, seed)
	if err != nil {
		return nil, err
	}
	sum := &BenchmarkSummary{}
	for _, root := range roots {
		res, err := r.RunValidated(root)
		if err != nil {
			return nil, fmt.Errorf("root %d: %w", root, err)
		}
		sum.Add(root, res)
	}
	return sum, nil
}

// DegreeHistogram returns log2-binned degree counts for the graph
// (bin 0 = isolated vertices; bin k>0 = degrees in [2^(k-1), 2^k)),
// regenerating the Figure 2 distribution.
func DegreeHistogram(g Graph) []int64 {
	return rmat.DegreeHistogram(rmat.Degrees(g.NumVertices, g.Edges))
}

// Validate checks a parent array against the Graph 500 specification.
func Validate(g Graph, root int64, parent []int64) error {
	_, err := validate.BFS(g.NumVertices, g.Edges, root, parent)
	return err
}
