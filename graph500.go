// Package graph500 is the public API of this reproduction of "Scaling Graph
// Traversal to 281 Trillion Edges with 40 Million Cores" (PPoPP '22): a
// distributed-memory breadth-first search built on 3-level degree-aware 1.5D
// graph partitioning, with sub-iteration direction optimization, CG-aware
// core-subgraph segmenting, and an OCS-RMA-style bucket-sort substrate, all
// running on an in-process message-passing runtime that stands in for MPI.
//
// Typical use:
//
//	g := graph500.Generate(graph500.GenConfig{Scale: 18, Seed: 42})
//	r, err := graph500.New(g, graph500.Config{Ranks: 16})
//	res, err := r.RunValidated(rootVertex)
//	fmt.Println(res.GTEPS())
//
// The packages under internal/ hold the substrates: the R-MAT generator,
// the partitioner, the BFS engine, the rank runtime, the chip simulator, and
// the performance projector. This package wires them together behind a small
// surface.
package graph500

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
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
// CheckpointScope / Config.ResumeFrom).
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

// Config selects the runtime configuration of a Runner.
type Config struct {
	// Ranks is the simulated node count; a squarest R×C mesh is derived
	// unless Mesh is set explicitly.
	Ranks int
	Mesh  Mesh
	// Thresholds are the E/H degree cut-offs; zero picks scale-appropriate
	// defaults.
	Thresholds Thresholds
	// Direction selects the traversal-direction policy (default:
	// sub-iteration direction optimization).
	Direction DirectionMode
	// Segmented enables CG-aware segmenting of the core-subgraph pull.
	Segmented bool
	// RankWorkers is intra-rank kernel parallelism (edge-aware vertex cut).
	RankWorkers int
	// Hierarchical forwards L2L messages via mesh intersection ranks.
	Hierarchical bool
	// SparseTail selects the sparse-update tail collective policy (default
	// SparseAuto: low-frontier iterations batch their remote push payloads
	// into one sparse allgather instead of dense alltoallv exchanges).
	SparseTail SparseMode
	// Faults injects collective faults (see internal/faultinject); nil means
	// a perfectly reliable transport.
	Faults comm.Transport
	// Dist attaches the cross-process socket backend (internal/comm over
	// internal/wire): this process hosts only the ranks DistConfig.ProcOf
	// maps to it, collectives that span processes travel as framed
	// contributions over the Group's sockets, and a real peer death is
	// detected by heartbeat silence and surfaced as rank death with epoch
	// rebuild. Every process of the group must run the same calls with the
	// same Config (SPMD), and CheckpointDir — if set — must name storage
	// all processes share. nil keeps the in-process backend.
	Dist *comm.DistConfig
	// CollectiveDeadline fails collectives whose slowest contribution was
	// delayed past it. 0 disables the watchdog.
	CollectiveDeadline time.Duration
	// MaxRetries bounds consecutive re-executions of a failed BFS iteration
	// (0 = engine default of 4; negative = no retries).
	MaxRetries int
	// RetryBackoff is the base backoff before re-executing a failed
	// iteration, doubling per consecutive retry (0 = engine default).
	RetryBackoff time.Duration
	// CheckpointDir enables the durable two-tier checkpoint store: the
	// immutable graph tier is written once per engine, and an async
	// double-buffered writer commits per-iteration traversal deltas. A run
	// that loses a rank resumes from the newest complete checkpoint instead
	// of restarting. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the delta cadence in iterations (0 = every
	// iteration).
	CheckpointEvery int
	// Recovery selects how the rank world is rebuilt after a fail-stop
	// (default ShrinkRecovery).
	Recovery RecoveryMode
	// KeepCheckpoints retains the run's checkpoint scope after success (see
	// Result.CheckpointScope) instead of pruning it.
	KeepCheckpoints bool
	// ResumeFrom names an existing checkpoint scope under CheckpointDir to
	// resume instead of starting fresh.
	ResumeFrom string
	// Drain, when non-nil, is polled at every iteration boundary; once it
	// returns true the whole world finishes the current iteration, commits a
	// checkpoint and returns ErrDrained — the supervised graceful-shutdown
	// path (SIGTERM under cmd/bfsrun).
	Drain func() bool
	// Trace, when non-nil, records every run's span timeline (kernels,
	// collectives, decisions, checkpoints, recovery) for the -trace output.
	Trace *trace.Tracer
}

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
	opt := core.Options{
		Mesh:               cfg.Mesh,
		Ranks:              cfg.Ranks,
		Thresholds:         cfg.Thresholds,
		Direction:          cfg.Direction,
		Segmented:          cfg.Segmented,
		RankWorkers:        cfg.RankWorkers,
		Hierarchical:       cfg.Hierarchical,
		SparseTail:         cfg.SparseTail,
		Transport:          cfg.Faults,
		Dist:               cfg.Dist,
		CollectiveDeadline: cfg.CollectiveDeadline,
		MaxRetries:         cfg.MaxRetries,
		RetryBackoff:       cfg.RetryBackoff,
		CheckpointDir:      cfg.CheckpointDir,
		CheckpointEvery:    cfg.CheckpointEvery,
		Recovery:           cfg.Recovery,
		KeepCheckpoints:    cfg.KeepCheckpoints,
		ResumeFrom:         cfg.ResumeFrom,
		Drain:              cfg.Drain,
		Trace:              cfg.Trace,
	}
	eng, err := core.NewEngine(g.NumVertices, g.Edges, opt)
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

// BenchmarkSummary reports a Graph 500 style multi-root run.
type BenchmarkSummary struct {
	Roots          []int64
	MeanTEPS       float64 // arithmetic mean of per-root TEPS
	HarmonicTEPS   float64 // the Graph 500 reported statistic
	MeanSeconds    float64
	MinTEPS        float64
	MaxTEPS        float64
	TotalTraversed int64
	// Faults and Recovery aggregate the fault-injection and fail-stop
	// recovery accounting across all runs (a kill spec fires during exactly
	// one of them, so per-root results would hide it).
	Faults   comm.FaultStats
	Recovery stats.RecoveryStats
	Retries  int64
	// RecoveryTime totals the wall time the slowest rank spent in failed
	// attempts and backoff, summed across runs.
	RecoveryTime time.Duration
	// Recorder aggregates every run's per-rank time/volume/edge breakdowns
	// (the Figure 10/11 inputs of the machine-readable report).
	Recorder stats.Recorder
	// Directions tallies the chosen traversal direction per component across
	// all runs' iterations (the Figure 15 input), indexed by
	// stats.Direction.
	Directions [partition.NumComponents][stats.NumDirections]int64
	// Iterations totals traversal iterations across runs.
	Iterations int64

	sumTEPS, invSumTEPS, sumSeconds float64 // running sums behind the means
}

// GTEPS returns the harmonic-mean TEPS in giga units.
func (b BenchmarkSummary) GTEPS() float64 { return b.HarmonicTEPS / 1e9 }

// Add folds one root's run into the summary and refreshes the derived
// statistics. It is the one aggregator: Benchmark and cmd/bfsrun's workers
// (which run their roots under resumable checkpoint scopes) both use it.
func (b *BenchmarkSummary) Add(root int64, res *Result) {
	if len(b.Roots) == 0 {
		b.Recovery.LastResumeIter = -2
	}
	b.Roots = append(b.Roots, root)
	b.Faults.Add(&res.Faults)
	b.Recovery.Add(&res.Recovery)
	if res.Recovery.LastResumeIter != -2 {
		b.Recovery.LastResumeIter = res.Recovery.LastResumeIter
	}
	b.Retries += res.Retries
	b.RecoveryTime += res.RecoveryTime
	b.Recorder.Merge(res.Recorder)
	b.Iterations += int64(res.Iterations)
	for _, it := range res.Trace {
		for c := 0; c < int(partition.NumComponents); c++ {
			b.Directions[c][it.Directions[c]]++
		}
	}
	teps := float64(res.TraversedEdges) / res.Time.Seconds()
	b.sumTEPS += teps
	b.invSumTEPS += 1 / teps
	b.sumSeconds += res.Time.Seconds()
	b.TotalTraversed += res.TraversedEdges
	if len(b.Roots) == 1 || teps < b.MinTEPS {
		b.MinTEPS = teps
	}
	if teps > b.MaxTEPS {
		b.MaxTEPS = teps
	}
	n := float64(len(b.Roots))
	b.MeanTEPS = b.sumTEPS / n
	b.MeanSeconds = b.sumSeconds / n
	b.HarmonicTEPS = n / b.invSumTEPS
}

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
