package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rmat"
)

func lineGraph(n int64) []rmat.Edge {
	edges := make([]rmat.Edge, 0, n-1)
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, rmat.Edge{U: i, V: i + 1})
	}
	return edges
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []rmat.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}}, BuildOptions{Symmetrize: true, SortAdj: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	wantNeighbors := map[int64][]int64{0: {1, 3}, 1: {0, 2}, 2: {1}, 3: {0}}
	for u, want := range wantNeighbors {
		got := g.Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("neighbors(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("neighbors(%d) = %v, want %v", u, got, want)
			}
		}
	}
}

func TestSelfLoopAndDedup(t *testing.T) {
	edges := []rmat.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 0}}
	g := FromEdges(2, edges, BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(0); d != 1 {
		t.Fatalf("degree(0) = %d, want 1 after dedup+loop drop", d)
	}
	if d := g.Degree(1); d != 1 {
		t.Fatalf("degree(1) = %d, want 1", d)
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 4}
	edges := rmat.Generate(cfg)
	g := FromEdges(cfg.NumVertices(), edges, BuildOptions{Symmetrize: true})
	var sum int64
	for u := int64(0); u < g.N; u++ {
		sum += g.Degree(u)
	}
	if sum != 2*int64(len(edges)) {
		t.Fatalf("degree sum %d, want %d", sum, 2*len(edges))
	}
}

func TestSequentialBFSLine(t *testing.T) {
	g := FromEdges(5, lineGraph(5), BuildOptions{Symmetrize: true})
	parent := g.SequentialBFS(0)
	want := []int64{0, 0, 1, 2, 3}
	for i, w := range want {
		if parent[i] != w {
			t.Fatalf("parent[%d] = %d, want %d", i, parent[i], w)
		}
	}
	levels, err := Levels(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if levels[i] != i {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], i)
		}
	}
}

func TestSequentialBFSDisconnected(t *testing.T) {
	g := FromEdges(4, []rmat.Edge{{U: 0, V: 1}}, BuildOptions{Symmetrize: true})
	parent := g.SequentialBFS(0)
	if parent[2] != -1 || parent[3] != -1 {
		t.Fatal("unreachable vertices must have parent -1")
	}
	levels, err := Levels(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if levels[2] != -1 || levels[3] != -1 {
		t.Fatal("unreachable vertices must have level -1")
	}
}

func TestLevelsDetectsCycle(t *testing.T) {
	// 1 and 2 point at each other; neither reaches the root.
	parent := []int64{0, 2, 1}
	if _, err := Levels(parent, 0); err == nil {
		t.Fatal("Levels should reject a parent cycle")
	}
}

func TestLevelsRejectsBadRoot(t *testing.T) {
	parent := []int64{1, 1}
	if _, err := Levels(parent, 0); err == nil {
		t.Fatal("Levels should reject parent[root] != root")
	}
}

func TestBFSMatchesLevelsOnRMAT(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 6}
	edges := rmat.Generate(cfg)
	g := FromEdges(cfg.NumVertices(), edges, BuildOptions{Symmetrize: true, DropSelfLoops: true})
	parent := g.SequentialBFS(1)
	levels, err := Levels(parent, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every tree edge must span exactly one level.
	for v := int64(0); v < g.N; v++ {
		if parent[v] == -1 || v == 1 {
			continue
		}
		if levels[v] != levels[parent[v]]+1 {
			t.Fatalf("tree edge %d->%d spans %d levels", parent[v], v, levels[v]-levels[parent[v]])
		}
	}
}

func TestPropertyCSRPreservesMultiset(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 16
		edges := make([]rmat.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, rmat.Edge{U: int64(raw[i] % n), V: int64(raw[i+1] % n)})
		}
		g := FromEdges(n, edges, BuildOptions{})
		if err := g.Validate(); err != nil {
			return false
		}
		// Multiset of directed edges must match input exactly.
		type pair struct{ u, v int64 }
		in := map[pair]int{}
		for _, e := range edges {
			in[pair{e.U, e.V}]++
		}
		out := map[pair]int{}
		for u := int64(0); u < n; u++ {
			for _, v := range g.Neighbors(u) {
				out[pair{u, v}]++
			}
		}
		if len(in) != len(out) {
			return false
		}
		for k, c := range in {
			if out[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(3, []rmat.Edge{{U: 0, V: 1}}, BuildOptions{})
	g.Adj[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range neighbor")
	}
	g2 := FromEdges(3, []rmat.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	g2.Ptr[1] = 2
	g2.Ptr[2] = 1
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone ptr")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 7}
	edges := rmat.Generate(cfg)
	a := FromEdges(cfg.NumVertices(), edges, BuildOptions{Symmetrize: true, SortAdj: true, Workers: 1})
	b := FromEdges(cfg.NumVertices(), edges, BuildOptions{Symmetrize: true, SortAdj: true, Workers: 8})
	for u := int64(0); u < a.N; u++ {
		x, y := a.Neighbors(u), b.Neighbors(u)
		if len(x) != len(y) {
			t.Fatalf("degree(%d) differs by workers", u)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("adjacency(%d) differs by workers", u)
			}
		}
	}
}

func randomEdges(n int64, m int, seed int64) []rmat.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]rmat.Edge, m)
	for i := range edges {
		edges[i] = rmat.Edge{U: rng.Int63n(n), V: rng.Int63n(n)}
	}
	return edges
}

func TestDedupSorted(t *testing.T) {
	g := FromEdges(100, randomEdges(100, 5000, 1), BuildOptions{Symmetrize: true, Dedup: true})
	for u := int64(0); u < g.N; u++ {
		nb := g.Neighbors(u)
		for i := 1; i < len(nb); i++ {
			if nb[i] <= nb[i-1] {
				t.Fatalf("neighbors(%d) not strictly increasing after dedup", u)
			}
		}
	}
}

func BenchmarkFromEdgesScale16(b *testing.B) {
	cfg := rmat.Config{Scale: 16, Seed: 1}
	edges := rmat.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(cfg.NumVertices(), edges, BuildOptions{Symmetrize: true, DropSelfLoops: true})
	}
}

func BenchmarkSequentialBFSScale16(b *testing.B) {
	cfg := rmat.Config{Scale: 16, Seed: 1}
	g := FromEdges(cfg.NumVertices(), rmat.Generate(cfg), BuildOptions{Symmetrize: true, DropSelfLoops: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SequentialBFS(0)
	}
}
