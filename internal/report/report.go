// Package report defines the versioned machine-readable output of the
// launchers: one JSON document per bfsbench or bfsrun invocation carrying the
// Graph 500 headline statistics plus the paper's evaluation breakdowns —
// per-phase time/edges/volume (Figure 10), per-collective traffic
// (Figure 11), per-component direction decisions (Figure 15) and the
// resilience/recovery accounting. BenchmarkSummary is the multi-root BFS
// accumulator Build reads; the root package's official statistics block
// reads the same value.
//
// The schema is versioned: any field removal or meaning change bumps
// SchemaVersion; additions are backward compatible within a version. The
// golden-file test pins the encoding so schema drift is an explicit,
// reviewed change. Read accepts exactly the current version: the only
// reader is cmd/bfsrun merging the report its own worker just wrote.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Schema identifies the document type; SchemaVersion its revision. Version 4
// dropped the batch block and Config.BatchRoots of version 3.
const (
	Schema        = "graph500-bench"
	SchemaVersion = 4
)

// Report is the top-level document.
type Report struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`

	Config  RunConfig `json:"config"`
	Summary Summary   `json:"summary"`

	// Phases is the Figure 10 breakdown: one entry per engine phase (the
	// six components, reduce, other), in phase order.
	Phases []PhaseEntry `json:"phases"`
	// Collectives is the Figure 11 breakdown: one entry per collective
	// kind, in kind order.
	Collectives []CollectiveEntry `json:"collectives"`
	// Directions is the Figure 15 breakdown: per component, how many
	// iterations chose push, pull or skip, in component order.
	Directions []DirectionEntry `json:"directions"`

	// Workloads holds one summary entry per benchmarked workload, in the
	// order run.
	Workloads []WorkloadEntry `json:"workloads,omitempty"`

	// Setup surfaces setup time as a first-class metric: where the wall time
	// before the first kernel went. Absent in bfsrun worker reports.
	Setup *SetupReport `json:"setup,omitempty"`

	Resilience Resilience `json:"resilience"`
}

// SetupReport breaks down the time between process start and the first
// traversal kernel. Seconds (the gated total) is partitioning plus engine
// construction — the preprocessing the paper's Section 5 treats as a
// first-class scaling problem; graph generation is reported alongside but
// excluded from the gate because it is benchmark harness cost, not setup the
// system controls. The partition sub-fields come from partition.BuildStats;
// SortSeconds (the JSON name predates the counting-pass assembly) sums the
// per-component counting passes across concurrently assembled ranks, so it
// can exceed AssembleSeconds wall time. FirstKernelGapSeconds is
// measured from the trace: the gap between the first run's run_start event
// and its first kernel span (0 when the run was not traced).
type SetupReport struct {
	Seconds               float64 `json:"setup_seconds"`
	GenerateSeconds       float64 `json:"generate_seconds"`
	PartitionSeconds      float64 `json:"partition_seconds"`
	DegreesSeconds        float64 `json:"degrees_seconds"`
	HubDirSeconds         float64 `json:"hubdir_seconds"`
	DistributeSeconds     float64 `json:"distribute_seconds"`
	AssembleSeconds       float64 `json:"assemble_seconds"`
	SortSeconds           float64 `json:"sort_seconds"`
	EngineSeconds         float64 `json:"engine_seconds"`
	FirstKernelGapSeconds float64 `json:"first_kernel_gap_seconds"`
}

// RunConfig records the benchmarked configuration, enough to reproduce the
// run and to refuse apples-to-oranges comparisons.
type RunConfig struct {
	Scale        int    `json:"scale"`
	EdgeFactor   int    `json:"edge_factor"`
	NumVertices  int64  `json:"num_vertices"`
	NumEdges     int64  `json:"num_edges"`
	Ranks        int    `json:"ranks"`
	MeshRows     int    `json:"mesh_rows"`
	MeshCols     int    `json:"mesh_cols"`
	Roots        int    `json:"roots"`
	Seed         uint64 `json:"seed"`
	Direction    string `json:"direction"`
	Segmented    bool   `json:"segmented"`
	Hierarchical bool   `json:"hierarchical"`
	RankWorkers  int    `json:"rank_workers"`
	Sparse       string `json:"sparse,omitempty"`
	Faults       string `json:"faults,omitempty"`
	Checkpoints  bool   `json:"checkpoints,omitempty"`
	// Workload is the comma-joined workload list of the run
	// ("bfs,wcc,kcore,sssp").
	Workload string `json:"workload,omitempty"`
}

// Summary is the Graph 500 headline block.
type Summary struct {
	// HarmonicMeanGTEPS is the reported Graph 500 statistic and the value
	// the CI regression gate compares.
	HarmonicMeanGTEPS float64 `json:"harmonic_mean_gteps"`
	MeanGTEPS         float64 `json:"mean_gteps"`
	MinGTEPS          float64 `json:"min_gteps"`
	MaxGTEPS          float64 `json:"max_gteps"`
	MeanSeconds       float64 `json:"mean_seconds"`
	TotalTraversed    int64   `json:"total_traversed_edges"`
	Iterations        int64   `json:"iterations"`
}

// WorkloadEntry is one per-workload summary row. GTEPS is the workload's
// throughput — edges touched per second for the iterative workloads, the
// harmonic-mean traversal rate for bfs.
type WorkloadEntry struct {
	Workload   string  `json:"workload"`
	GTEPS      float64 `json:"gteps"`
	Seconds    float64 `json:"seconds"`
	Iterations int64   `json:"iterations"`
	CommBytes  int64   `json:"comm_bytes"`
	Retries    int64   `json:"retries"`

	// Workload-specific headline outputs, for at-a-glance sanity checks of
	// an archived document; zero values are omitted.
	Components  int64 `json:"components,omitempty"`  // wcc
	K           int64 `json:"k,omitempty"`           // kcore threshold
	CoreSize    int64 `json:"core_size,omitempty"`   // kcore
	Root        int64 `json:"root,omitempty"`        // sssp
	Relaxations int64 `json:"relaxations,omitempty"` // sssp
}

// PhaseEntry is one Figure 10 bar: a phase's share of engine time, split by
// traversal direction, with its scanned edges and payload traffic.
type PhaseEntry struct {
	Phase        string  `json:"phase"`
	Seconds      float64 `json:"seconds"`
	Share        float64 `json:"share"`
	PushSeconds  float64 `json:"push_seconds"`
	PullSeconds  float64 `json:"pull_seconds"`
	EdgesTouched int64   `json:"edges_touched"`
	IntraBytes   int64   `json:"intra_bytes"`
	InterBytes   int64   `json:"inter_bytes"`
}

// CollectiveEntry is one Figure 11 bar: a collective kind's payload traffic
// split by supernode locality, and its call count.
type CollectiveEntry struct {
	Kind       string `json:"kind"`
	IntraBytes int64  `json:"intra_bytes"`
	InterBytes int64  `json:"inter_bytes"`
	Calls      int64  `json:"calls"`
}

// DirectionEntry is one Figure 15 row: how often each direction won for one
// component across all benchmarked iterations.
type DirectionEntry struct {
	Component string `json:"component"`
	Push      int64  `json:"push"`
	Pull      int64  `json:"pull"`
	Skip      int64  `json:"skip"`
}

// Resilience aggregates fault-injection and fail-stop recovery accounting
// across the benchmark's runs.
type Resilience struct {
	FaultsInjected     int64   `json:"faults_injected"`
	CollectiveErrors   int64   `json:"collective_errors"`
	Retries            int64   `json:"retries"`
	RetrySeconds       float64 `json:"retry_seconds"`
	Epochs             int64   `json:"epochs"`
	RanksLost          int64   `json:"ranks_lost"`
	IterationsReplayed int64   `json:"iterations_replayed"`
	BytesRestored      int64   `json:"bytes_restored"`
	RecoverySeconds    float64 `json:"recovery_seconds"`
	CheckpointSegments int64   `json:"checkpoint_segments"`
	CheckpointBytes    int64   `json:"checkpoint_bytes"`
	CheckpointDropped  int64   `json:"checkpoint_dropped"`
	CheckpointErrors   int64   `json:"checkpoint_errors"`

	// Wire snapshots the socket transport when the run used the
	// cross-process backend: heartbeat traffic, reconnects and peers declared
	// dead become a committed artifact next to the epoch counts they
	// triggered. Absent for in-process runs.
	Wire *WireResilience `json:"wire,omitempty"`

	// Supervisor is the cluster supervisor's process
	// babysitting record when the run was launched by cmd/bfsrun: spawns,
	// restarts, crash-loop give-ups and drains across all world generations.
	// Absent for unsupervised runs.
	Supervisor *SupervisorResilience `json:"supervisor,omitempty"`
}

// WireResilience is the socket backend's transport accounting, reported by
// the leader process's endpoint (every process keeps its own counters; the
// leader's view is the one archived).
type WireResilience struct {
	Procs        int `json:"procs"`
	RanksPerProc int `json:"ranks_per_proc"`
	wire.Stats
}

// SupervisorResilience is cmd/bfsrun's babysitting record: what the cluster
// supervisor did to keep the worker fleet alive, aggregated across every
// world generation it launched.
type SupervisorResilience struct {
	Workers     int   `json:"workers"`
	Spares      int   `json:"spares,omitempty"`
	Generations int   `json:"generations"`
	Spawns      int64 `json:"spawns"`
	Restarts    int64 `json:"restarts"`
	Crashes     int64 `json:"crashes"`
	Hangs       int64 `json:"hangs,omitempty"`
	Parked      int64 `json:"parked,omitempty"`
	Drained     int64 `json:"drained,omitempty"`
	// CrashLoopGiveUps counts generations abandoned by the crash-loop
	// circuit breaker. Nonzero means the run needed more than restart-level
	// recovery.
	CrashLoopGiveUps int64 `json:"crash_loop_give_ups,omitempty"`
}

// BenchmarkSummary accumulates a Graph 500 style multi-root BFS run: each
// root's time and rate, which the official statistics block orders, and the
// aggregates the document's summary, breakdown and resilience blocks print.
// Add is its one writer; graph500.Runner.Benchmark and cmd/bfsrun's workers
// (which run their roots under resumable checkpoint scopes) both use it.
type BenchmarkSummary struct {
	Roots []int64
	// Seconds and TEPS hold each root's traversal time and rate, in Roots
	// order.
	Seconds, TEPS []float64

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
	// (the Figure 10/11 inputs).
	Recorder stats.Recorder
	// Directions tallies the chosen traversal direction per component across
	// all runs' iterations (the Figure 15 input), indexed by
	// stats.Direction.
	Directions [partition.NumComponents][stats.NumDirections]int64
	// Iterations totals traversal iterations across runs.
	Iterations int64
}

// GTEPS returns the harmonic-mean TEPS in giga units.
func (b *BenchmarkSummary) GTEPS() float64 { return b.HarmonicTEPS / 1e9 }

// Add folds one root's run into the summary and refreshes the derived
// statistics.
func (b *BenchmarkSummary) Add(root int64, res *core.Result) {
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
	b.Seconds = append(b.Seconds, res.Time.Seconds())
	b.TEPS = append(b.TEPS, teps)
	b.TotalTraversed += res.TraversedEdges
	if len(b.Roots) == 1 || teps < b.MinTEPS {
		b.MinTEPS = teps
	}
	if teps > b.MaxTEPS {
		b.MaxTEPS = teps
	}
	var sumTEPS, invSumTEPS, sumSeconds float64
	for i, x := range b.TEPS {
		sumTEPS += x
		invSumTEPS += 1 / x
		sumSeconds += b.Seconds[i]
	}
	n := float64(len(b.Roots))
	b.MeanTEPS = sumTEPS / n
	b.MeanSeconds = sumSeconds / n
	b.HarmonicTEPS = n / invSumTEPS
}

// WorkloadEntry renders the summary as its per-workload row: GTEPS is the
// harmonic-mean traversal rate, the same statistic as the headline summary.
func (b *BenchmarkSummary) WorkloadEntry() WorkloadEntry {
	return WorkloadEntry{
		Workload:   "bfs",
		GTEPS:      b.GTEPS(),
		Seconds:    b.MeanSeconds,
		Iterations: b.Iterations,
		CommBytes:  b.Recorder.CommBytes(),
		Retries:    b.Retries,
	}
}

// Build assembles the versioned document of a run configured as cfg from its
// BFS summary (nil when the run held no BFS). The caller attaches what only
// it measures: the Workloads rows, the Setup block, and the Wire and
// Supervisor resilience blocks.
func Build(cfg RunConfig, sum *BenchmarkSummary) *Report {
	if sum == nil {
		sum = &BenchmarkSummary{}
	}
	r := &Report{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Config:        cfg,
		Summary: Summary{
			HarmonicMeanGTEPS: sum.HarmonicTEPS / 1e9,
			MeanGTEPS:         sum.MeanTEPS / 1e9,
			MinGTEPS:          sum.MinTEPS / 1e9,
			MaxGTEPS:          sum.MaxTEPS / 1e9,
			MeanSeconds:       sum.MeanSeconds,
			TotalTraversed:    sum.TotalTraversed,
			Iterations:        sum.Iterations,
		},
	}

	rec := &sum.Recorder
	total := rec.TotalTime()
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		e := PhaseEntry{
			Phase:        p.String(),
			Seconds:      rec.PhaseTime(p).Seconds(),
			PushSeconds:  rec.Time[p][stats.DirPush].Seconds(),
			PullSeconds:  rec.Time[p][stats.DirPull].Seconds(),
			EdgesTouched: rec.EdgesTouched[p],
		}
		if total > 0 {
			e.Share = float64(rec.PhaseTime(p)) / float64(total)
		}
		e.IntraBytes, e.InterBytes = rec.Volumes[p].Totals()
		r.Phases = append(r.Phases, e)
	}

	vol := rec.CommBreakdown()
	for k := comm.Kind(0); k < comm.NumKinds; k++ {
		r.Collectives = append(r.Collectives, CollectiveEntry{
			Kind:       k.String(),
			IntraBytes: vol.IntraBytes[k],
			InterBytes: vol.InterBytes[k],
			Calls:      vol.Calls[k],
		})
	}

	for c := 0; c < int(partition.NumComponents); c++ {
		r.Directions = append(r.Directions, DirectionEntry{
			Component: partition.Component(c).String(),
			Push:      sum.Directions[c][stats.DirPush],
			Pull:      sum.Directions[c][stats.DirPull],
			Skip:      sum.Directions[c][stats.DirSkip],
		})
	}

	rs := &sum.Recovery
	r.Resilience = Resilience{
		FaultsInjected:     sum.Faults.Injected(),
		CollectiveErrors:   sum.Faults.Errors,
		Retries:            sum.Retries,
		RetrySeconds:       sum.RecoveryTime.Seconds(),
		Epochs:             rs.Epochs,
		RanksLost:          rs.RanksLost,
		IterationsReplayed: rs.IterationsReplayed,
		BytesRestored:      rs.BytesRestored,
		RecoverySeconds:    rs.RecoveryTime.Seconds(),
		CheckpointSegments: rs.CheckpointSegments,
		CheckpointBytes:    rs.CheckpointBytes,
		CheckpointDropped:  rs.CheckpointDropped,
		CheckpointErrors:   rs.CheckpointErrors,
	}
	return r
}

// Write encodes the document as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the document to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a document and checks its schema identity and version.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("report: schema %q, want %q", r.Schema, Schema)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("report: schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// ReadFile reads a document from path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
