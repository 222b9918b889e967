package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
	"repro/internal/validate"
)

// Pathological graph shapes stress the engine differently from R-MAT:
// stars concentrate all edges on one hub, cliques make every vertex heavy,
// bipartite graphs maximize frontier flapping, and multigraphs exercise
// duplicate-edge tolerance.

func verifyAll(t *testing.T, name string, n int64, edges []rmat.Edge, roots []int64) {
	t.Helper()
	g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for _, mode := range []DirectionMode{ModeSubIteration, ModePushOnly, ModePullOnly} {
		for _, th := range []partition.Thresholds{
			{E: 4, H: 2},             // almost everything is a hub
			{E: 1 << 30, H: 1 << 29}, // nothing is a hub
			{E: 64, H: 8},
		} {
			opt := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th, Direction: mode}
			eng, err := NewEngine(n, edges, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, root := range roots {
				res, err := eng.Run(root)
				if err != nil {
					t.Fatalf("%s mode=%d th=%+v root=%d: %v", name, mode, th, root, err)
				}
				if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
					t.Fatalf("%s mode=%d th=%+v root=%d: %v", name, mode, th, root, err)
				}
				refLvl, _ := graph.Levels(g.SequentialBFS(root), root)
				gotLvl, err := graph.Levels(res.Parent, root)
				if err != nil {
					t.Fatalf("%s root=%d: %v", name, root, err)
				}
				for v := int64(0); v < n; v++ {
					if refLvl[v] != gotLvl[v] {
						t.Fatalf("%s mode=%d th=%+v root=%d: level[%d]=%d want %d",
							name, mode, th, root, v, gotLvl[v], refLvl[v])
					}
				}
			}
		}
	}
}

func TestStarGraph(t *testing.T) {
	// One center connected to everyone: the center is an extreme E vertex.
	const n = 512
	var edges []rmat.Edge
	for v := int64(1); v < n; v++ {
		edges = append(edges, rmat.Edge{U: 0, V: v})
	}
	verifyAll(t, "star", n, edges, []int64{0, 1, 511})
}

func TestDoubleStar(t *testing.T) {
	// Two hubs sharing leaves: exercises E-E edges plus E2L from both.
	const n = 512
	var edges []rmat.Edge
	edges = append(edges, rmat.Edge{U: 0, V: 1})
	for v := int64(2); v < n; v++ {
		edges = append(edges, rmat.Edge{U: 0, V: v}, rmat.Edge{U: 1, V: v})
	}
	verifyAll(t, "double-star", n, edges, []int64{0, 2})
}

func TestCliquePlusTail(t *testing.T) {
	// A 32-clique (all heavy) with a path hanging off it (all light).
	const n = 128
	var edges []rmat.Edge
	for i := int64(0); i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			edges = append(edges, rmat.Edge{U: i, V: j})
		}
	}
	for v := int64(32); v < 64; v++ {
		edges = append(edges, rmat.Edge{U: v - 1, V: v})
	}
	verifyAll(t, "clique+tail", n, edges, []int64{0, 63, 40})
}

func TestBipartiteFlapping(t *testing.T) {
	// Complete bipartite K_{8,100}: frontier alternates sides every level.
	const n = 256
	var edges []rmat.Edge
	for a := int64(0); a < 8; a++ {
		for b := int64(8); b < 108; b++ {
			edges = append(edges, rmat.Edge{U: a, V: b})
		}
	}
	verifyAll(t, "bipartite", n, edges, []int64{0, 8, 107})
}

func TestHeavyMultigraph(t *testing.T) {
	// Every edge repeated 5x plus self loops: kernels must stay idempotent.
	const n = 128
	rng := rand.New(rand.NewSource(9))
	var edges []rmat.Edge
	for i := 0; i < 200; i++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		for rep := 0; rep < 5; rep++ {
			edges = append(edges, rmat.Edge{U: u, V: v})
		}
	}
	for v := int64(0); v < 20; v++ {
		edges = append(edges, rmat.Edge{U: v, V: v})
	}
	verifyAll(t, "multigraph", n, edges, []int64{0, 64})
}

func TestLongPath(t *testing.T) {
	// Diameter equal to vertex count: many iterations, tiny frontiers.
	const n = 100
	var edges []rmat.Edge
	for v := int64(0); v < n-1; v++ {
		edges = append(edges, rmat.Edge{U: v, V: v + 1})
	}
	verifyAll(t, "path", n, edges, []int64{0, 50, 99})
}

func TestRandomGraphsProperty(t *testing.T) {
	// Randomized integration sweep: small Erdős–Rényi-ish multigraphs,
	// random roots, random thresholds, all modes, checked against the
	// sequential oracle.
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 25; trial++ {
		n := int64(64 + rng.Intn(512))
		m := 1 + rng.Intn(int(4*n))
		edges := make([]rmat.Edge, m)
		for i := range edges {
			edges[i] = rmat.Edge{U: rng.Int63n(n), V: rng.Int63n(n)}
		}
		th := partition.Thresholds{H: int64(1 + rng.Intn(16))}
		th.E = th.H + int64(rng.Intn(64))
		mode := DirectionMode(rng.Intn(2)) // sub-iteration or whole-iteration
		mesh := []topology.Mesh{{Rows: 1, Cols: 1}, {Rows: 2, Cols: 2}, {Rows: 1, Cols: 4}, {Rows: 4, Cols: 2}}[rng.Intn(4)]
		rng.Intn(2) // the retired segmented axis: drawn so later trials keep their graphs
		opt := Options{Mesh: mesh, Thresholds: th, Direction: mode}
		eng, err := NewEngine(n, edges, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
		root := rng.Int63n(n)
		res, err := eng.Run(root)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opt, err)
		}
		if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
			t.Fatalf("trial %d (%+v root %d): %v", trial, opt, root, err)
		}
		refLvl, _ := graph.Levels(g.SequentialBFS(root), root)
		gotLvl, err := graph.Levels(res.Parent, root)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for v := int64(0); v < n; v++ {
			if refLvl[v] != gotLvl[v] {
				t.Fatalf("trial %d (%+v root %d): level[%d]=%d want %d",
					trial, opt, root, v, gotLvl[v], refLvl[v])
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	eng, err := NewEngine(64, nil, Options{Ranks: 4, Thresholds: partition.Thresholds{E: 4, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range res.Parent {
		want := int64(-1)
		if v == 5 {
			want = 5
		}
		if p != want {
			t.Fatalf("parent[%d] = %d, want %d", v, p, want)
		}
	}
}

func TestManyRootsOneEngine(t *testing.T) {
	// Engine reuse across runs must not leak state between traversals.
	cfg := rmat.Config{Scale: 9, Seed: 55}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	eng, err := NewEngine(n, edges, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for root := int64(0); root < 20; root++ {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		refLvl, _ := graph.Levels(g.SequentialBFS(root), root)
		gotLvl, err := graph.Levels(res.Parent, root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for v := int64(0); v < n; v++ {
			if refLvl[v] != gotLvl[v] {
				t.Fatalf("root %d: state leak at vertex %d", root, v)
			}
		}
	}
}

func TestWideMeshesAtScale(t *testing.T) {
	// Extreme mesh aspect ratios with more ranks than some rows/cols of data.
	cfg := rmat.Config{Scale: 8, Seed: 56}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	for _, mesh := range []topology.Mesh{{Rows: 1, Cols: 16}, {Rows: 16, Cols: 1}, {Rows: 8, Cols: 2}} {
		t.Run(fmt.Sprintf("%dx%d", mesh.Rows, mesh.Cols), func(t *testing.T) {
			opt := Options{Mesh: mesh, Thresholds: partition.Thresholds{E: 128, H: 16}}
			eng, err := NewEngine(n, edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := validate.BFS(n, edges, 3, res.Parent); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLargeScaleIntegration(t *testing.T) {
	// A bigger end-to-end sweep, skipped under -short: SCALE 18 over 16
	// ranks with hierarchical forwarding on, multiple
	// validated roots.
	if testing.Short() {
		t.Skip("large integration test skipped with -short")
	}
	cfg := rmat.Config{Scale: 18, Seed: 99}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	eng, err := NewEngine(n, edges, Options{Ranks: 16, Hierarchical: true})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for root := int64(0); root < n && checked < 4; root++ {
		if eng.Part.Degrees[root] == 0 {
			continue
		}
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		checked++
	}
	if checked != 4 {
		t.Fatalf("only %d roots checked", checked)
	}
}
