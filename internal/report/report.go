// Package report defines the versioned machine-readable output of the
// launchers: one JSON document per bfsbench or bfsrun invocation carrying the
// Graph 500 headline statistics plus the paper's evaluation breakdowns —
// per-phase time/edges/volume (Figure 10), per-collective traffic
// (Figure 11), per-component direction decisions (Figure 15) and the
// resilience/recovery accounting.
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

// Inputs is everything Build needs, decoupled from the root package so the
// report layer depends only on the measurement substrates.
type Inputs struct {
	Config RunConfig

	HarmonicTEPS float64
	MeanTEPS     float64
	MinTEPS      float64
	MaxTEPS      float64
	MeanSeconds  float64
	Traversed    int64
	Iterations   int64

	// Recorder is the benchmark-wide aggregate of every rank's breakdowns.
	Recorder *stats.Recorder
	// Directions tallies chosen directions per component across iterations,
	// indexed by stats.Direction.
	Directions [partition.NumComponents][stats.NumDirections]int64

	Faults       comm.FaultStats
	Retries      int64
	RecoveryWall time.Duration
	Recovery     stats.RecoveryStats

	// Wire carries the socket backend's transport counters; nil for
	// in-process runs.
	Wire *WireResilience

	// Supervisor carries cmd/bfsrun's babysitting record; nil for
	// unsupervised runs.
	Supervisor *SupervisorResilience

	// Workloads passes through the per-workload summary rows.
	Workloads []WorkloadEntry

	// Setup passes through the setup-time block; nil omits it.
	Setup *SetupReport
}

// Build assembles the versioned document from the benchmark's measurements.
func Build(in Inputs) *Report {
	r := &Report{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Config:        in.Config,
		Summary: Summary{
			HarmonicMeanGTEPS: in.HarmonicTEPS / 1e9,
			MeanGTEPS:         in.MeanTEPS / 1e9,
			MinGTEPS:          in.MinTEPS / 1e9,
			MaxGTEPS:          in.MaxTEPS / 1e9,
			MeanSeconds:       in.MeanSeconds,
			TotalTraversed:    in.Traversed,
			Iterations:        in.Iterations,
		},
	}

	rec := in.Recorder
	if rec == nil {
		rec = &stats.Recorder{}
	}
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
			Push:      in.Directions[c][stats.DirPush],
			Pull:      in.Directions[c][stats.DirPull],
			Skip:      in.Directions[c][stats.DirSkip],
		})
	}

	r.Workloads = append(r.Workloads, in.Workloads...)
	r.Setup = in.Setup

	r.Resilience = Resilience{
		FaultsInjected:     in.Faults.Injected(),
		CollectiveErrors:   in.Faults.Errors,
		Retries:            in.Retries,
		RetrySeconds:       in.RecoveryWall.Seconds(),
		Epochs:             in.Recovery.Epochs,
		RanksLost:          in.Recovery.RanksLost,
		IterationsReplayed: in.Recovery.IterationsReplayed,
		BytesRestored:      in.Recovery.BytesRestored,
		RecoverySeconds:    in.Recovery.RecoveryTime.Seconds(),
		CheckpointSegments: in.Recovery.CheckpointSegments,
		CheckpointBytes:    in.Recovery.CheckpointBytes,
		CheckpointDropped:  in.Recovery.CheckpointDropped,
		CheckpointErrors:   in.Recovery.CheckpointErrors,
		Wire:               in.Wire,
		Supervisor:         in.Supervisor,
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
