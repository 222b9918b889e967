package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/rmat"
)

// Properties of the analytics workloads against the sequential references in
// reference_test.go, across squarest meshes of several sizes.

func rmatEngine(t *testing.T, scale int, seed uint64, ranks int) (*Engine, int64, []rmat.Edge) {
	t.Helper()
	cfg := rmat.Config{Scale: scale, Seed: seed}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	eng, err := NewEngine(n, edges, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n, edges
}

func TestPageRankMatchesSequential(t *testing.T) {
	eng, n, edges := rmatEngine(t, 9, 17, 4)
	const iters = 30
	res, err := eng.RunPageRank(0.85, 0, iters) // tol 0 forces exactly iters rounds
	if err != nil {
		t.Fatal(err)
	}
	ref := sequentialPageRank(n, edges, 0.85, iters)
	for v := int64(0); v < n; v++ {
		if math.Abs(res.Rank[v]-ref[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %.15g, reference %.15g", v, res.Rank[v], ref[v])
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	eng, _, _ := rmatEngine(t, 10, 18, 4)
	res, err := eng.RunPageRank(0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %.12f", sum)
	}
	if res.Delta > 1e-10 || res.Iterations >= 200 {
		t.Fatalf("did not converge: delta %g after %d iterations", res.Delta, res.Iterations)
	}
}

// TestPageRankHubsRankHighest: the top-ranked vertex of an R-MAT graph is a
// hub (a degree outlier) — the premise of degree-aware partitioning.
func TestPageRankHubsRankHighest(t *testing.T) {
	eng, _, _ := rmatEngine(t, 11, 19, 4)
	res, err := eng.RunPageRank(0.85, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	best := int64(0)
	for v := range res.Rank {
		if res.Rank[v] > res.Rank[best] {
			best = int64(v)
		}
	}
	if _, isHub := eng.Part.Hubs.HubOf(best); !isHub {
		t.Fatalf("top-ranked vertex %d (degree %d) is not a hub", best, eng.Part.Degrees[best])
	}
}

func TestPageRankMeshInvariance(t *testing.T) {
	var ref []float64
	for _, ranks := range []int{1, 2, 4, 8} {
		eng, _, _ := rmatEngine(t, 8, 20, ranks)
		res, err := eng.RunPageRank(0.85, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Rank
			continue
		}
		for v := range ref {
			if math.Abs(res.Rank[v]-ref[v]) > 1e-12 {
				t.Fatalf("ranks=%d: rank[%d] differs from 1-rank run: %g vs %g", ranks, v, res.Rank[v], ref[v])
			}
		}
	}
}

func TestPageRankRejectsBadDamping(t *testing.T) {
	eng, _, _ := rmatEngine(t, 6, 1, 2)
	for _, d := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := eng.RunPageRank(d, 1e-6, 10); err == nil {
			t.Fatalf("damping %g accepted", d)
		}
	}
}

// TestPageRankKillRecoveryDangling kills a rank mid-run on a graph with
// isolated vertices, so the resumed rounds depend on the dangling mass the
// checkpoint carries beside the ranks. The recovered run must be
// bit-identical to the fault-free one.
func TestPageRankKillRecoveryDangling(t *testing.T) {
	eng, _, _ := rmatEngine(t, 9, 33, 4)
	isolated := false
	for _, d := range eng.Part.Degrees {
		isolated = isolated || d == 0
	}
	if !isolated {
		t.Fatal("graph has no dangling vertex")
	}
	want, err := eng.RunPageRank(0.85, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	opt := eng.Opt
	opt.Transport = &chaosTransport{kills: []*killCall{{rank: 2, iter: 20}}}
	opt.CheckpointDir = t.TempDir()
	rec, err := NewEngineFromPartition(eng.Part, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.RunPageRank(0.85, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery.Epochs != 1 || got.Recovery.LastResumeIter < 0 {
		t.Fatalf("recovery %+v: want one epoch resumed from a checkpoint", got.Recovery)
	}
	for v := range want.Rank {
		if math.Float64bits(got.Rank[v]) != math.Float64bits(want.Rank[v]) {
			t.Fatalf("rank[%d] = %.17g after recovery, fault-free %.17g", v, got.Rank[v], want.Rank[v])
		}
	}
}

// checkWCCAgainstUnionFind runs WCC on a SCALE 10 R-MAT graph and compares
// every label with the union-find reference.
func checkWCCAgainstUnionFind(t *testing.T, seed uint64, ranks int) {
	t.Helper()
	eng, n, edges := rmatEngine(t, 10, seed, ranks)
	res, err := eng.RunWCC()
	if err != nil {
		t.Fatal(err)
	}
	ref := unionFind(n, edges)
	for v := int64(0); v < n; v++ {
		if res.Label[v] != ref[v] {
			t.Fatalf("seed %d ranks %d: label[%d] = %d, reference %d", seed, ranks, v, res.Label[v], ref[v])
		}
	}
}

func TestWCCMatchesUnionFind(t *testing.T) { checkWCCAgainstUnionFind(t, 21, 4) }

func TestWCCMatchesUnionFindEightRanks(t *testing.T) { checkWCCAgainstUnionFind(t, 82, 8) }

func TestWCCComponentCount(t *testing.T) {
	// Two triangles and isolated vertices.
	edges := []rmat.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 10},
	}
	eng, err := NewEngine(64, edges, Options{Ranks: 4, Thresholds: partition.Thresholds{E: 16, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWCC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 2 {
		t.Fatalf("found %d components, want 2", res.Components)
	}
	if res.Label[0] != 0 || res.Label[2] != 0 || res.Label[12] != 10 || res.Label[40] != 40 {
		t.Fatalf("labels wrong: %v %v %v %v", res.Label[0], res.Label[2], res.Label[12], res.Label[40])
	}
}

// TestWCCConvergenceCountsFinalRound pins the convergence accounting: the
// zero-change round that proves convergence is counted. On a path of n
// vertices labels last change in round n-1, so the quiet round n brings
// Iterations to exactly n.
func TestWCCConvergenceCountsFinalRound(t *testing.T) {
	const n = int64(9)
	edges := pathEdges(n)
	if got := sequentialWCCRounds(n, edges); got != int(n) {
		t.Fatalf("reference counts %d rounds on path-%d, want %d", got, n, n)
	}
	for _, ranks := range []int{1, 4} {
		eng, err := NewEngine(n, edges, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWCC()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != int(n) {
			t.Fatalf("ranks=%d: path-%d WCC took %d iterations, want %d (final quiet round counts)",
				ranks, n, res.Iterations, n)
		}
		if res.Components != 1 {
			t.Fatalf("ranks=%d: components = %d, want 1", ranks, res.Components)
		}
	}
}

func TestWCCMeshShapes(t *testing.T) {
	cfg := rmat.Config{Scale: 8, Seed: 22}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	ref := unionFind(n, edges)
	for _, ranks := range []int{1, 2, 6, 9} {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			eng, err := NewEngine(n, edges, Options{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunWCC()
			if err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < n; v++ {
				if res.Label[v] != ref[v] {
					t.Fatalf("label[%d] = %d, reference %d", v, res.Label[v], ref[v])
				}
			}
		})
	}
}

func TestKCoreMatchesSequential(t *testing.T) {
	eng, n, edges := rmatEngine(t, 10, 91, 4)
	for _, k := range []int64{0, 1, 2, 5, 16, 64} {
		res, err := eng.RunKCore(k)
		if err != nil {
			t.Fatal(err)
		}
		ref := sequentialKCore(n, edges, k)
		for v := int64(0); v < n; v++ {
			if res.InCore[v] != ref[v] {
				t.Fatalf("k=%d: InCore[%d] = %v, reference %v", k, v, res.InCore[v], ref[v])
			}
		}
	}
}

// TestKCoreNesting: the (k+1)-core is contained in the k-core.
func TestKCoreNesting(t *testing.T) {
	eng, _, _ := rmatEngine(t, 11, 92, 4)
	var prev *WorkloadResult
	for k := int64(1); k <= 32; k *= 2 {
		res, err := eng.RunKCore(k)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if res.CoreSize > prev.CoreSize {
				t.Fatalf("core grew from k: %d -> %d", prev.CoreSize, res.CoreSize)
			}
			for v := range res.InCore {
				if res.InCore[v] && !prev.InCore[v] {
					t.Fatalf("vertex %d in higher core but not lower", v)
				}
			}
		}
		prev = res
	}
}

// TestKCoreHubsSurviveLongest: at k = the H threshold, mostly hub-class
// vertices remain — the dense core is the E/H subgraph, the paper's
// structural premise.
func TestKCoreHubsSurviveLongest(t *testing.T) {
	eng, _, _ := rmatEngine(t, 12, 93, 4)
	res, err := eng.RunKCore(eng.Opt.Thresholds.H)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize == 0 {
		t.Skip("core empty at this threshold")
	}
	hubs := 0.0
	for v, in := range res.InCore {
		if _, isHub := eng.Part.Hubs.HubOf(int64(v)); in && isHub {
			hubs++
		}
	}
	if frac := hubs / float64(res.CoreSize); frac < 0.5 {
		t.Fatalf("only %.0f%% of the %d-core are hubs", 100*frac, eng.Opt.Thresholds.H)
	}
}

func TestKCoreMeshInvariance(t *testing.T) {
	var ref []bool
	for _, ranks := range []int{1, 4, 6} {
		eng, _, _ := rmatEngine(t, 9, 94, ranks)
		res, err := eng.RunKCore(3)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.InCore
			continue
		}
		for v := range ref {
			if res.InCore[v] != ref[v] {
				t.Fatalf("ranks=%d: InCore[%d] differs", ranks, v)
			}
		}
	}
}

func TestKCoreRejectsNegative(t *testing.T) {
	eng, _, _ := rmatEngine(t, 6, 95, 2)
	if _, err := eng.RunKCore(-1); err == nil {
		t.Fatal("negative k accepted")
	}
}
