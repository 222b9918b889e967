package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/validate"
)

// checkAgainstReference runs the engine and asserts (a) full Graph 500
// validation and (b) reachable set + level agreement with a sequential BFS.
func checkAgainstReference(t *testing.T, n int64, edges []rmat.Edge, opt Options, roots []int64) {
	t.Helper()
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for _, root := range roots {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
			t.Fatalf("root %d: graph500 validation: %v", root, err)
		}
		ref := g.SequentialBFS(root)
		refLvl, err := graph.Levels(ref, root)
		if err != nil {
			t.Fatal(err)
		}
		gotLvl, err := graph.Levels(res.Parent, root)
		if err != nil {
			t.Fatalf("root %d: engine levels: %v", root, err)
		}
		for v := int64(0); v < n; v++ {
			if refLvl[v] != gotLvl[v] {
				t.Fatalf("root %d: level[%d] = %d, reference %d", root, v, gotLvl[v], refLvl[v])
			}
		}
	}
}

func rmatEdges(t *testing.T, scale int, seed uint64) (int64, []rmat.Edge) {
	t.Helper()
	cfg := rmat.Config{Scale: scale, Seed: seed}
	return cfg.NumVertices(), rmat.Generate(cfg)
}

func TestEngineMatchesReferenceDefault(t *testing.T) {
	n, edges := rmatEdges(t, 11, 1)
	opt := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 512, H: 64}}
	checkAgainstReference(t, n, edges, opt, []int64{0, 5, 100, 2047})
}

func TestEngineAllDirectionModes(t *testing.T) {
	n, edges := rmatEdges(t, 10, 2)
	for _, mode := range []DirectionMode{ModeSubIteration, ModeWholeIteration, ModePushOnly, ModePullOnly} {
		opt := Options{
			Mesh:       topology.Mesh{Rows: 2, Cols: 2},
			Thresholds: partition.Thresholds{E: 256, H: 32},
			Direction:  mode,
		}
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			checkAgainstReference(t, n, edges, opt, []int64{3, 999})
		})
	}
}

func TestEngineMeshShapes(t *testing.T) {
	n, edges := rmatEdges(t, 10, 5)
	for _, mesh := range []topology.Mesh{
		{Rows: 1, Cols: 1}, {Rows: 1, Cols: 4}, {Rows: 4, Cols: 1},
		{Rows: 2, Cols: 4}, {Rows: 4, Cols: 4},
	} {
		t.Run(fmt.Sprintf("%dx%d", mesh.Rows, mesh.Cols), func(t *testing.T) {
			opt := Options{Mesh: mesh, Thresholds: partition.Thresholds{E: 256, H: 32}}
			checkAgainstReference(t, n, edges, opt, []int64{0, 511})
		})
	}
}

func TestEngineThresholdExtremes(t *testing.T) {
	n, edges := rmatEdges(t, 9, 6)
	cases := []partition.Thresholds{
		{E: 64, H: 64},           // no H: degenerates to 1D with E delegates
		{E: 1 << 30, H: 1},       // no L... every connected vertex is a hub (2D)
		{E: 1 << 30, H: 1 << 29}, // no hubs at all: pure 1D
		{E: 100, H: 10},
	}
	for i, th := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			opt := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th}
			checkAgainstReference(t, n, edges, opt, []int64{1, 300})
		})
	}
}

func TestEngineHierarchicalL2L(t *testing.T) {
	n, edges := rmatEdges(t, 10, 7)
	opt := Options{
		Mesh:         topology.Mesh{Rows: 2, Cols: 4},
		Thresholds:   partition.Thresholds{E: 512, H: 64},
		Hierarchical: true,
	}
	checkAgainstReference(t, n, edges, opt, []int64{0, 77})
}

func TestEngineIsolatedRoot(t *testing.T) {
	// A root with no edges: the BFS must terminate immediately with only the
	// root reached.
	n := int64(1 << 8)
	edges := []rmat.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	opt := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 16, H: 4}}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent[200] != 200 {
		t.Fatal("root not its own parent")
	}
	reached := 0
	for _, p := range res.Parent {
		if p >= 0 {
			reached++
		}
	}
	if reached != 1 {
		t.Fatalf("reached %d vertices from isolated root", reached)
	}
}

func TestEngineRootIsHub(t *testing.T) {
	n, edges := rmatEdges(t, 10, 9)
	opt := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 256, H: 32}}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the highest-degree vertex: certainly class E.
	root := eng.Part.Hubs.Orig[0]
	checkAgainstReference(t, n, edges, opt, []int64{root})
	_ = eng
}

func TestEngineRejectsBadInput(t *testing.T) {
	n, edges := rmatEdges(t, 8, 10)
	if _, err := NewEngine(n, edges, Options{}); err == nil {
		t.Fatal("missing mesh and ranks should error")
	}
	eng, err := NewEngine(n, edges, Options{Ranks: 4, Thresholds: partition.Thresholds{E: 64, H: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(-1); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := eng.Run(n); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestResultMetrics(t *testing.T) {
	n, edges := rmatEdges(t, 10, 11)
	opt := Options{Ranks: 4, Thresholds: partition.Thresholds{E: 256, H: 32}}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || len(res.Trace) != res.Iterations {
		t.Fatalf("iterations %d, trace %d", res.Iterations, len(res.Trace))
	}
	if res.TraversedEdges <= 0 {
		t.Fatal("no traversed edges counted")
	}
	if res.GTEPS() <= 0 {
		t.Fatal("GTEPS not positive")
	}
	if res.Recorder.TotalEdges() == 0 {
		t.Fatal("recorder saw no edge touches")
	}
	if len(res.PerRank) != 4 {
		t.Fatalf("%d per-rank recorders", len(res.PerRank))
	}
	// Traversed edges must not exceed input edges.
	if res.TraversedEdges > int64(len(edges)) {
		t.Fatalf("traversed %d > input %d", res.TraversedEdges, len(edges))
	}
}

func TestTraceActivationBreakdown(t *testing.T) {
	// Hubs should be densely active earlier than L (the Figure 5 pattern).
	n, edges := rmatEdges(t, 13, 12)
	opt := Options{Ranks: 4, Thresholds: partition.Thresholds{E: 1024, H: 64}}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	peakIter := func(f func(IterTrace) int64) int {
		best, arg := int64(-1), 0
		for i, it := range res.Trace {
			if f(it) > best {
				best, arg = f(it), i
			}
		}
		return arg
	}
	hubPeak := peakIter(func(it IterTrace) int64 { return it.ActiveE + it.ActiveH })
	lPeak := peakIter(func(it IterTrace) int64 { return it.ActiveL })
	if hubPeak > lPeak {
		t.Fatalf("hub activation peak (iter %d) after L peak (iter %d); Figure 5 pattern violated", hubPeak, lPeak)
	}
}

func TestSubIterationTouchesFewerEdges(t *testing.T) {
	// The point of sub-iteration direction optimization: fewer edges touched
	// than whole-iteration direction optimization, while both stay correct.
	n, edges := rmatEdges(t, 13, 13)
	th := partition.Thresholds{E: 1024, H: 64}
	run := func(mode DirectionMode) int64 {
		eng, err := NewEngine(n, edges, Options{Ranks: 4, Thresholds: th, Direction: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Recorder.TotalEdges()
	}
	sub := run(ModeSubIteration)
	push := run(ModePushOnly)
	if sub >= push {
		t.Fatalf("sub-iteration touched %d edges, plain push %d; direction optimization saves nothing", sub, push)
	}
}

func TestDefaultThresholds(t *testing.T) {
	for scale := 4; scale <= 40; scale++ {
		th := DefaultThresholds(scale)
		if err := th.Validate(); err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
	}
}

func TestDirectionsConsistentAcrossRanks(t *testing.T) {
	// Deadlock regression guard: a run completing at all proves collective
	// lockstep, but also confirm the recorded directions are plausible: at
	// least one pull occurs on a dense graph under sub-iteration mode.
	n, edges := rmatEdges(t, 12, 14)
	eng, err := NewEngine(n, edges, Options{Ranks: 8, Thresholds: partition.Thresholds{E: 512, H: 64}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sawPull := false
	for _, it := range res.Trace {
		for _, d := range it.Directions {
			if d == stats.DirPull {
				sawPull = true
			}
		}
	}
	if !sawPull {
		t.Fatal("sub-iteration mode never chose pull on a dense R-MAT graph")
	}
}

func TestDelayedReductionCostIsDepthIndependent(t *testing.T) {
	// Section 5: the delegated parent array is reduced once after the run,
	// so the reduce phase costs the same calls and bytes however many
	// iterations the traversal took. A per-iteration scheme would scale
	// with depth. The comb's spine is H hubs (K > 0); a root at the spine's
	// end sits ~24 levels deeper than one at its middle.
	n, edges := combEdges(48, 8)
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 8, H: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Part.Hubs.K() == 0 {
		t.Fatal("comb spine produced no hubs")
	}
	run := func(root int64) (int, comm.VolumeStats) {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		return res.Iterations, res.Recorder.Volumes[stats.PhaseReduce]
	}
	deepIters, deep := run(0)
	shallowIters, shallow := run(24)
	if deepIters-shallowIters < 3 {
		t.Fatalf("iterations %d vs %d: roots too close in depth", deepIters, shallowIters)
	}
	var calls int64
	for _, c := range deep.Calls {
		calls += c
	}
	if calls == 0 || deep.TotalBytes() == 0 {
		t.Fatalf("no reduce traffic: %+v", deep)
	}
	if deep != shallow {
		t.Fatalf("reduce cost depends on depth: %d iterations %+v, %d iterations %+v",
			deepIters, deep, shallowIters, shallow)
	}
}

// TestNoDelegationIsPure1D pins the claim Table 1's vanilla 1D row rests
// on: with both thresholds above every degree no vertex is delegated, so
// the engine runs plain 1D-partitioned BFS — every edge touch is an L2L
// touch — and still induces the sequential reference's levels.
func TestNoDelegationIsPure1D(t *testing.T) {
	n, edges := rmatEdges(t, 11, 7)
	g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for _, mesh := range []topology.Mesh{{Rows: 1, Cols: 4}, {Rows: 2, Cols: 2}} {
		t.Run(fmt.Sprintf("%dx%d", mesh.Rows, mesh.Cols), func(t *testing.T) {
			eng, err := NewEngine(n, edges, Options{
				Mesh:       mesh,
				Thresholds: partition.Thresholds{E: math.MaxInt64, H: math.MaxInt64},
			})
			if err != nil {
				t.Fatal(err)
			}
			if k := eng.Part.Hubs.K(); k != 0 {
				t.Fatalf("%d hubs with thresholds above every degree", k)
			}
			root := firstConnectedRootOf(eng)
			res, err := eng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			refLvl, err := graph.Levels(g.SequentialBFS(root), root)
			if err != nil {
				t.Fatal(err)
			}
			gotLvl, err := graph.Levels(res.Parent, root)
			if err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < n; v++ {
				if refLvl[v] != gotLvl[v] {
					t.Fatalf("level[%d] = %d, reference %d", v, gotLvl[v], refLvl[v])
				}
			}
			for p, e := range res.Recorder.EdgesTouched {
				if e != 0 && stats.Phase(p) != stats.PhaseL2L {
					t.Errorf("phase %v touched %d edges; a 1D run touches only L2L", stats.Phase(p), e)
				}
			}
			if res.Recorder.EdgesTouched[stats.PhaseL2L] == 0 {
				t.Fatal("no L2L edge touches")
			}
		})
	}
}
