package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/stats"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report document")

// syntheticReport builds a document from a fully deterministic measurement
// set that exercises every section.
func syntheticReport() *Report {
	sum := &BenchmarkSummary{
		HarmonicTEPS:   2.5e8,
		MeanTEPS:       3e8,
		MinTEPS:        1e8,
		MaxTEPS:        5e8,
		MeanSeconds:    0.0125,
		TotalTraversed: 4_000_000,
		Iterations:     48,
		Faults:         comm.FaultStats{Failures: 2, Errors: 8},
		Retries:        2,
		RecoveryTime:   3 * time.Millisecond,
		Recovery: stats.RecoveryStats{
			Epochs: 1, RanksLost: 1, IterationsReplayed: 3, BytesRestored: 4096,
			RecoveryTime: 2 * time.Millisecond, CheckpointSegments: 7, CheckpointBytes: 9000,
		},
	}
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		var v comm.VolumeStats
		v.IntraBytes[comm.KindAlltoallv] = int64(1000 * (p + 1))
		v.InterBytes[comm.KindAllgather] = int64(100 * (p + 1))
		v.Calls[comm.KindAlltoallv] = int64(p + 1)
		sum.Recorder.Observe(p, stats.DirPush, time.Duration(p+1)*time.Millisecond, v, int64(50*(p+1)))
		sum.Recorder.Observe(p, stats.DirPull, time.Duration(p+1)*500*time.Microsecond, comm.VolumeStats{}, int64(10*(p+1)))
	}
	for c := range sum.Directions {
		sum.Directions[c][stats.DirPush] = int64(3 + c)
		sum.Directions[c][stats.DirPull] = int64(2 * c)
		sum.Directions[c][stats.DirSkip] = int64(c)
	}
	r := Build(RunConfig{
		Scale: 14, EdgeFactor: 16, NumVertices: 1 << 14, NumEdges: 16 << 14,
		Ranks: 4, MeshRows: 2, MeshCols: 2, Roots: 8, Seed: 42,
		Direction: "sub-iteration", Segmented: true, RankWorkers: 1,
		Workload: "bfs,wcc,kcore,sssp",
	}, sum)
	r.Setup = &SetupReport{
		Seconds: 0.5, GenerateSeconds: 0.3, PartitionSeconds: 0.4,
		DegreesSeconds: 0.05, HubDirSeconds: 0.02, DistributeSeconds: 0.08,
		AssembleSeconds: 0.25, SortSeconds: 0.2, EngineSeconds: 0.1,
		FirstKernelGapSeconds: 0.6,
	}
	r.Resilience.Wire = &WireResilience{Procs: 2, RanksPerProc: 2, Stats: wire.Stats{
		HeartbeatsSent: 7, HeartbeatsRecv: 7, Reconnects: 1, PeersLost: 1,
		FramesResent: 3, BytesSent: 65536, BytesRecv: 65024,
		AuthRejects: 1, HandshakeTimeouts: 1,
	}}
	r.Resilience.Supervisor = &SupervisorResilience{
		Workers: 3, Spares: 2, Generations: 1,
		Spawns: 7, Restarts: 2, Crashes: 2, Parked: 2,
	}
	r.Workloads = []WorkloadEntry{
		{Workload: "bfs", GTEPS: 0.25, Seconds: 0.0125, Iterations: 48, CommBytes: 8192},
		{Workload: "wcc", GTEPS: 0.8, Seconds: 0.02, Iterations: 9, CommBytes: 4096, Components: 3},
		{Workload: "kcore", GTEPS: 0.6, Seconds: 0.015, Iterations: 12, CommBytes: 2048, K: 2, CoreSize: 900},
		{Workload: "sssp", GTEPS: 0.1, Seconds: 0.04, Iterations: 33, CommBytes: 6144, Retries: 1, Root: 5, Relaxations: 70000},
	}
	return r
}

// TestGoldenDocument pins the JSON encoding: any schema change shows up as a
// reviewed diff of testdata/report.golden (regenerate with
// `go test ./internal/report -run TestGoldenDocument -update-golden`), and a
// field removal or meaning change must bump SchemaVersion.
func TestGoldenDocument(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticReport().Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("document drifted from golden file.\ngot:\n%s\nwant:\n%s\n"+
			"If the change is intentional, regenerate with -update-golden "+
			"and bump SchemaVersion if any field changed meaning.", buf.Bytes(), want)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := syntheticReport()
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != r.Summary || got.Config != r.Config {
		t.Fatalf("round trip mutated the document: %+v vs %+v", got.Summary, r.Summary)
	}
	if len(got.Phases) != int(stats.NumPhases) || len(got.Collectives) != int(comm.NumKinds) {
		t.Fatalf("sections truncated: %d phases, %d collectives", len(got.Phases), len(got.Collectives))
	}
	if got.Setup == nil || *got.Setup != *r.Setup {
		t.Fatalf("setup block lost in round trip: %+v vs %+v", got.Setup, r.Setup)
	}
	if got.Resilience.Wire == nil || *got.Resilience.Wire != *r.Resilience.Wire {
		t.Fatalf("wire block lost in round trip: %+v vs %+v", got.Resilience.Wire, r.Resilience.Wire)
	}
	if got.Resilience.Supervisor == nil || *got.Resilience.Supervisor != *r.Resilience.Supervisor {
		t.Fatalf("supervisor block lost in round trip: %+v vs %+v", got.Resilience.Supervisor, r.Resilience.Supervisor)
	}
}

func TestReadRejectsForeignSchema(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte(`{"schema":"other","schema_version":1}`))); err == nil {
		t.Fatal("foreign schema accepted")
	}
	for _, v := range []string{"1", "3", "99"} { // retired and future versions alike
		if _, err := Read(bytes.NewReader([]byte(`{"schema":"graph500-bench","schema_version":` + v + `}`))); err == nil {
			t.Fatalf("schema version %s accepted", v)
		}
	}
}
