package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
)

// These tests pin the communication behavior the paper ascribes to each
// component: which kernels message, over which communicator scope, and which
// stay local thanks to delegation.

// hubLGraph builds a graph with one guaranteed-H vertex (degree 40) whose
// leaves are L, plus an E vertex (degree 200).
func hubLGraph() (int64, []rmat.Edge, partition.Thresholds) {
	const n = 1024
	var edges []rmat.Edge
	// E vertex 0: degree 200.
	for v := int64(1); v <= 200; v++ {
		edges = append(edges, rmat.Edge{U: 0, V: v})
	}
	// H vertex 300: degree 40 (below E threshold 100, above H threshold 20).
	for v := int64(301); v <= 340; v++ {
		edges = append(edges, rmat.Edge{U: 300, V: v})
	}
	// An L-L path spanning rank boundaries (block size is 256, so the path
	// 400..599 crosses the 511|512 boundary).
	for v := int64(400); v < 599; v++ {
		edges = append(edges, rmat.Edge{U: v, V: v + 1})
	}
	return n, edges, partition.Thresholds{E: 100, H: 20}
}

func phaseVolume(res *Result, p stats.Phase) int64 {
	v := res.Recorder.Volumes[p]
	return v.TotalBytes()
}

func TestE2LIsCommunicationFree(t *testing.T) {
	// E is delegated on every rank: pushing E2L and pulling L2E must move
	// zero bytes in those phases (hub state travels in the shared sync,
	// attributed to "other").
	n, edges, th := hubLGraph()
	for _, mode := range []DirectionMode{ModePushOnly, ModePullOnly} {
		eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th, Direction: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(0) // root is the E vertex
		if err != nil {
			t.Fatal(err)
		}
		if v := phaseVolume(res, stats.PhaseE2L); v != 0 {
			t.Fatalf("mode %d: E2L moved %d bytes; E delegation should make it local", mode, v)
		}
		if v := phaseVolume(res, stats.PhaseL2E); v != 0 {
			t.Fatalf("mode %d: L2E moved %d bytes; E delegation should make it local", mode, v)
		}
	}
}

func TestH2LPushMessagesStayInRow(t *testing.T) {
	// H2L push messages travel on the row communicator only. With a mesh of
	// one row the traffic exists but never crosses a supernode-boundary
	// proxy; with a supernode-splitting machine we can detect scope by
	// construction: all H2L bytes must be intra-supernode when rows map to
	// supernodes.
	n, edges, th := hubLGraph()
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	mach := topology.Machine{Nodes: 4, SupernodeSize: 2, NICBandwidth: 1e9, Oversubscription: 4}
	// SparseOff pins the dense row exchange; the sparse tail's scope behavior
	// is covered by the sparse differential corpus.
	eng, err := NewEngine(n, edges, Options{Mesh: mesh, Machine: mach, Thresholds: th, Direction: ModePushOnly,
		SparseTail: SparseOff})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(300) // root is the H vertex: H2L fires immediately
	if err != nil {
		t.Fatal(err)
	}
	v := res.Recorder.Volumes[stats.PhaseH2L]
	totalA2A := v.IntraBytes[comm.KindAlltoallv] + v.InterBytes[comm.KindAlltoallv]
	if totalA2A == 0 {
		t.Fatal("H2L push sent no messages despite H leaves on other ranks")
	}
	if v.InterBytes[comm.KindAlltoallv] != 0 {
		t.Fatalf("H2L push crossed supernodes: %d inter bytes (rows map to supernodes)", v.InterBytes[comm.KindAlltoallv])
	}
}

func TestH2LPullIsLocal(t *testing.T) {
	// Bottom-up H2L scans owned L vertices against the replicated hub
	// frontier: no alltoallv at all.
	n, edges, th := hubLGraph()
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th, Direction: ModePullOnly})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Recorder.Volumes[stats.PhaseH2L]
	if a2a := v.IntraBytes[comm.KindAlltoallv] + v.InterBytes[comm.KindAlltoallv]; a2a != 0 {
		t.Fatalf("H2L pull used alltoallv (%d bytes); should be local via delegation", a2a)
	}
}

func TestL2LPullUsesAllgatherNotAlltoallv(t *testing.T) {
	n, edges, th := hubLGraph()
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th, Direction: ModePullOnly,
		MaxIterations: 256}) // the 400..599 L-path gives the graph diameter ~200
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(400) // L root: L2L does the work
	if err != nil {
		t.Fatal(err)
	}
	v := res.Recorder.Volumes[stats.PhaseL2L]
	if ag := v.IntraBytes[comm.KindAllgather] + v.InterBytes[comm.KindAllgather]; ag == 0 {
		t.Fatal("L2L pull gathered no frontier words")
	}
	if a2a := v.IntraBytes[comm.KindAlltoallv] + v.InterBytes[comm.KindAlltoallv]; a2a != 0 {
		t.Fatalf("L2L pull used alltoallv (%d bytes)", a2a)
	}
}

func TestL2LPushUsesAlltoallvNotAllgather(t *testing.T) {
	n, edges, th := hubLGraph()
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th, Direction: ModePushOnly,
		SparseTail:    SparseOff, // pin the dense exchange this test is about
		MaxIterations: 256})      // the 400..599 L-path gives the graph diameter ~200
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Recorder.Volumes[stats.PhaseL2L]
	if a2a := v.IntraBytes[comm.KindAlltoallv] + v.InterBytes[comm.KindAlltoallv]; a2a == 0 {
		t.Fatal("L2L push sent no messages")
	}
	if ag := v.IntraBytes[comm.KindAllgather] + v.InterBytes[comm.KindAllgather]; ag != 0 {
		t.Fatalf("L2L push gathered frontiers (%d bytes)", ag)
	}
}

func TestHierarchicalL2LDoublesHops(t *testing.T) {
	// Forwarding via the intersection rank sends each message twice (column
	// hop + row hop): total alltoallv bytes must exceed the direct scheme's.
	n, edges, th := hubLGraph()
	run := func(hier bool) int64 {
		eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2},
			Thresholds: th, Direction: ModePushOnly, Hierarchical: hier,
			SparseTail: SparseOff, MaxIterations: 256})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(400)
		if err != nil {
			t.Fatal(err)
		}
		v := res.Recorder.Volumes[stats.PhaseL2L]
		return v.IntraBytes[comm.KindAlltoallv] + v.InterBytes[comm.KindAlltoallv]
	}
	direct := run(false)
	hier := run(true)
	if direct == 0 {
		t.Fatal("no L2L traffic at all")
	}
	if hier <= direct {
		t.Fatalf("hierarchical L2L bytes %d not above direct %d (two hops expected)", hier, direct)
	}
}

func TestSkipRecordedForExhaustedClasses(t *testing.T) {
	// After the component's destination class is fully visited,
	// sub-iteration mode must record skips (the late-iteration saving).
	cfg := rmat.Config{Scale: 12, Seed: 71}
	edges := rmat.Generate(cfg)
	eng, err := NewEngine(cfg.NumVertices(), edges, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(firstConnectedRootOf(eng))
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, it := range res.Trace {
		for _, d := range it.Directions {
			if d == stats.DirSkip {
				skips++
			}
		}
	}
	if skips == 0 {
		t.Fatal("no sub-iteration was ever skipped on an R-MAT run")
	}
}

func firstConnectedRootOf(eng *Engine) int64 {
	for v, d := range eng.Part.Degrees {
		if d > 0 {
			return int64(v)
		}
	}
	return 0
}
