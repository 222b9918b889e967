package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// This file holds the only remaining copies of the loops the word-parallel
// pulls and the in-rank assembly replaced. They are the references: the bit-
// at-a-time candidate test, the global -1 pre-fill and the serial per-element
// parent write and degree count, exactly as the engine ran them before.

// refHubToLPull is the former e2lPull/h2lPull loop.
func refHubToLPull(st *rankState, csr *partition.DenseCSR32) int64 {
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for li := 0; li < st.rg.LocalN; li++ {
		if csr.Ptr[li] == csr.Ptr[li+1] || st.lVisited.Test(li) || st.lNew.Test(li) {
			continue
		}
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.hubFrontier.Test(int(hub)) {
				st.lNew.Set(li)
				st.parentL[li] = orig[hub]
				break
			}
		}
	}
	return edges
}

// refL2LPullScan is the former l2lPullScan loop.
func refL2LPullScan(st *rankState) int64 {
	csr := &st.rg.L2L
	var edges int64
	for li := 0; li < st.rg.LocalN; li++ {
		if csr.Ptr[li] == csr.Ptr[li+1] || st.lVisited.Test(li) || st.lNew.Test(li) {
			continue
		}
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.worldFrontier.Test(int(dst)) {
				st.lNew.Set(li)
				st.parentL[li] = dst
				break
			}
		}
	}
	return edges
}

// refAssemble is the former Engine.Run tail: -1 pre-fill, per-element
// writeParents for every rank in turn, then countTraversedEdges.
func refAssemble(e *Engine, planes []*rankState) ([]int64, int64) {
	layout := e.Part.Layout
	parent := make([]int64, layout.N)
	for i := range parent {
		parent[i] = -1
	}
	for _, st := range planes {
		for i := 0; i < st.rg.LocalN; i++ {
			if st.parentL[i] >= 0 {
				parent[layout.GlobalOf(st.r.ID, int32(i))] = st.parentL[i]
			}
		}
		for h, orig := range e.Part.Hubs.Orig {
			if layout.Owner(orig) == st.r.ID && st.parentHub[h] >= 0 {
				parent[orig] = st.parentHub[h]
			}
		}
	}
	var sum int64
	for v, p := range parent {
		if p >= 0 {
			sum += e.Part.Degrees[v]
		}
	}
	return parent, sum / 2
}

// fullTrees is the full-tree query of every root.
func fullTrees(roots ...int64) []Query {
	qs := make([]Query, len(roots))
	for i, root := range roots {
		qs[i] = Query{Root: root, Target: -1}
	}
	return qs
}

// rankHandles returns every rank's handle. The kernels under test here are
// rank-local (no collectives), so the handles stay usable outside World.Run.
func rankHandles(e *Engine) []*comm.Rank {
	rs := make([]*comm.Rank, e.Opt.Ranks)
	e.World.Run(func(r *comm.Rank) { rs[r.ID] = r })
	return rs
}

// scanGraph is an R-MAT graph cut to 1001 vertices: N % P != 0 on a 2x2 mesh,
// PerRank pads from 251 to 256, and the last rank owns 233 vertices — a final
// word that is neither full nor empty.
func scanGraph(t testing.TB, th partition.Thresholds) *Engine {
	t.Helper()
	const n = 1001
	var edges []rmat.Edge
	for _, ed := range rmat.Generate(rmat.Config{Scale: 10, Seed: 77}) {
		if ed.U < n && ed.V < n {
			edges = append(edges, ed)
		}
	}
	e, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fillRandom sets each of b's first n bits with probability p.
func fillRandom(b *bitmap.Bitmap, n int, p float64, rng *rand.Rand) {
	b.Reset()
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
}

// onePlane builds a rank's BFS workload for one query, as Engine.Run does,
// and returns its plane.
func onePlane(e *Engine, r *comm.Rank) *rankState {
	return newMultiState(e, r, fullTrees(0)).planes[0]
}

// scanState hand-builds one rank's plane: visited/new/frontier densities are
// the scenario, and parentL carries a sentinel so a stray write shows.
func scanState(e *Engine, r *comm.Rank, visited, pending, frontier float64, seed int64) *rankState {
	rng := rand.New(rand.NewSource(seed))
	st := onePlane(e, r)
	fillRandom(st.lVisited, st.rg.LocalN, visited, rng)
	fillRandom(st.lNew, st.rg.LocalN, pending, rng)
	st.lNew.AndNot(st.lVisited)
	fillRandom(st.hubFrontier, st.k, frontier, rng)
	st.worldFrontier = bitmap.New(int(e.Part.Layout.PerRank) * e.Part.Layout.P)
	fillRandom(st.worldFrontier, int(e.Part.Layout.N), frontier, rng)
	return st
}

func sameScan(t *testing.T, what string, got, want *rankState, gotEdges, wantEdges int64) {
	t.Helper()
	if gotEdges != wantEdges {
		t.Errorf("%s: edges = %d, reference %d", what, gotEdges, wantEdges)
	}
	for w, ww := range want.lNew.Words() {
		if gw := got.lNew.Words()[w]; gw != ww {
			t.Errorf("%s: lNew word %d = %#x, reference %#x", what, w, gw, ww)
		}
	}
	for i, wp := range want.parentL {
		if got.parentL[i] != wp {
			t.Errorf("%s: parentL[%d] = %d, reference %d", what, i, got.parentL[i], wp)
		}
	}
}

// TestWordScanPullsMatchBitLoops checks the three word-scan kernels against
// the bit-at-a-time references on hand-built rank states.
func TestWordScanPullsMatchBitLoops(t *testing.T) {
	e := scanGraph(t, partition.Thresholds{E: 64, H: 12})
	if n := e.Part.Ranks[3].LocalN; n%64 == 0 {
		t.Fatalf("rank 3 owns %d vertices; the test needs a ragged last word", n)
	}
	scenarios := []struct {
		name                       string
		visited, pending, frontier float64
	}{
		{"none-visited", 0, 0, 0.5},
		{"all-visited", 1, 0, 0.5},
		{"half-visited", 0.5, 0, 0.3},
		{"nearly-done", 0.95, 0, 0.1},
		{"pending-from-earlier-kernel", 0.3, 0.3, 0.5},
		{"every-probe-hits", 0, 0, 1}, // each word's bits land in lNew while it is being walked
		{"no-probe-hits", 0.2, 0.1, 0},
	}
	kernels := []struct {
		name     string
		run, ref func(st *rankState) int64
	}{
		{"e2l", (*rankState).e2lPull, func(st *rankState) int64 { return refHubToLPull(st, &st.rg.LToE) }},
		{"h2l", (*rankState).h2lPull, func(st *rankState) int64 { return refHubToLPull(st, &st.rg.LToH) }},
		{"l2l", (*rankState).l2lPullScan, refL2LPullScan},
	}
	activated := map[string]int{} // per kernel, over all ranks and scenarios
	for _, r := range rankHandles(e) {
		for si, sc := range scenarios {
			seed := int64(100*r.ID + si)
			for _, k := range kernels {
				got := scanState(e, r, sc.visited, sc.pending, sc.frontier, seed)
				want := scanState(e, r, sc.visited, sc.pending, sc.frontier, seed)
				wantEdges := k.ref(want)
				what := fmt.Sprintf("rank %d %s %s", r.ID, k.name, sc.name)
				sameScan(t, what, got, want, k.run(got), wantEdges)
				if sc.visited == 1 && wantEdges != 0 {
					t.Errorf("%s: reference touched %d edges with every vertex visited", what, wantEdges)
				}
				activated[k.name] += want.lNew.Count()
			}
		}
	}
	for _, k := range kernels {
		if activated[k.name] == 0 {
			t.Errorf("%s: no scenario activated a vertex; the graph does not exercise the kernel", k.name)
		}
	}
}

// TestWordScanEmptyHasMask: with the E threshold above every degree the graph
// has no E hub, every LToE row is empty and the E2L pull's mask is all zero.
func TestWordScanEmptyHasMask(t *testing.T) {
	e := scanGraph(t, partition.Thresholds{E: 1 << 20, H: 12})
	for _, r := range rankHandles(e) {
		for _, w := range e.lRows[r.ID].toE {
			if w != 0 {
				t.Fatalf("rank %d: toE mask has bits with no E hub in the graph", r.ID)
			}
		}
		got := scanState(e, r, 0.2, 0.1, 1, 7)
		want := scanState(e, r, 0.2, 0.1, 1, 7)
		n := got.e2lPull()
		sameScan(t, fmt.Sprintf("rank %d e2l empty mask", r.ID), got, want, n, refHubToLPull(want, &want.rg.LToE))
		if n != 0 {
			t.Errorf("rank %d: E2L pull touched %d edges of an empty component", r.ID, n)
		}
	}
}

func sameAssembly(t *testing.T, what string, e *Engine, got *Result, planes []*rankState) {
	t.Helper()
	want, wantEdges := refAssemble(e, planes)
	if got.TraversedEdges != wantEdges {
		t.Errorf("%s: TraversedEdges = %d, serial reference %d", what, got.TraversedEdges, wantEdges)
	}
	if len(got.Parent) != len(want) {
		t.Fatalf("%s: %d parents, want %d", what, len(got.Parent), len(want))
	}
	for v, p := range want {
		if got.Parent[v] != p {
			t.Fatalf("%s: parent[%d] = %d, serial reference %d", what, v, got.Parent[v], p)
		}
	}
}

// TestInRankAssemblyMatchesSerial runs real traversals on the padded layout
// (N % P != 0), from a hub root and from L roots, and checks the in-rank
// assembly of Run and of a 3-root RunBatch against the serial reference built
// from the same final rank states — and against the public entry points.
func TestInRankAssemblyMatchesSerial(t *testing.T) {
	e := scanGraph(t, partition.Thresholds{E: 64, H: 12})
	if e.Part.Layout.N%int64(e.Part.Layout.P) == 0 {
		t.Fatal("layout is not padded; the test needs N % P != 0")
	}
	hubRoot := e.Part.Hubs.Orig[0]
	var lRoot int64 = -1
	for v := e.Part.Layout.N - 1; v >= 0; v-- { // an L root in the ragged last block
		if _, hub := e.Part.Hubs.HubOf(v); !hub && e.Part.Degrees[v] > 0 {
			lRoot = v
			break
		}
	}
	if lRoot < 0 || e.Part.Layout.Owner(lRoot) != e.Part.Layout.P-1 {
		t.Fatalf("no connected L root in the last rank's block (got %d)", lRoot)
	}
	for _, root := range []int64{hubRoot, lRoot} {
		root := root
		rc, err := e.execute("asm", nil, func(e *Engine, r *comm.Rank) *valueBase { return &newMultiState(e, r, fullTrees(root)).valueBase })
		if err != nil || rc.err != nil {
			t.Fatal(err, rc.err)
		}
		var planes []*rankState
		for _, b := range rc.bases {
			planes = append(planes, b.spec.wl.(*multiState).planes[0])
		}
		res := &Result{Target: -1}
		e.assemble(rc, []*Result{res})
		what := fmt.Sprintf("Run(%d)", root)
		sameAssembly(t, what, e, res, planes)
		if res.TraversedEdges == 0 {
			t.Errorf("%s traversed nothing", what)
		}
		pub, err := e.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		sameAssembly(t, what+" public", e, pub, planes)
	}

	roots := []int64{hubRoot, lRoot, 1}
	rc, err := e.execute("asmbatch", nil, func(e *Engine, r *comm.Rank) *valueBase { return &newMultiState(e, r, fullTrees(roots...)).valueBase })
	if err != nil || rc.err != nil {
		t.Fatal(err, rc.err)
	}
	out := []*Result{{Target: -1}, {Target: -1}, {Target: -1}}
	e.assemble(rc, out)
	br, err := e.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	for q := range roots {
		var planes []*rankState
		for _, b := range rc.bases {
			planes = append(planes, b.spec.wl.(*multiState).planes[q])
		}
		sameAssembly(t, fmt.Sprintf("RunBatch query %d", q), e, out[q], planes)
		sameAssembly(t, fmt.Sprintf("RunBatch query %d public", q), e, br.Queries[q], planes)
	}
}

// --- layer microbenchmarks ---------------------------------------------------

// benchEngine is the one fixed partition every layer benchmark here runs on:
// SCALE 16, edge factor 16, seed 1, 2x2 mesh (16384 owned vertices per rank).
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	cfg := rmat.Config{Scale: 16, Seed: 1}
	e, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

var benchSink int64

// benchPull times one pull kernel on rank 0 at 5% / 50% / 95% of the owned
// vertices visited, against a half-active frontier. lNew is cleared between
// calls (256 words, noise against the scan) so every call does the same work.
func benchPull(b *testing.B, kernel func(st *rankState) int64) {
	e := benchEngine(b)
	r := rankHandles(e)[0]
	for _, visited := range []float64{0.05, 0.50, 0.95} {
		st := scanState(e, r, visited, 0, 0.5, 1)
		b.Run(fmt.Sprintf("visited=%.0f%%", 100*visited), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.lNew.Reset()
				benchSink += kernel(st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.rg.LocalN), "ns/vertex")
		})
	}
}

func BenchmarkKernelE2LPull(b *testing.B) { benchPull(b, (*rankState).e2lPull) }

func BenchmarkKernelH2LPull(b *testing.B) { benchPull(b, (*rankState).h2lPull) }

func BenchmarkKernelL2LPull(b *testing.B) { benchPull(b, (*rankState).l2lPullScan) }

// BenchmarkAssemble times the whole result assembly of one query (all four
// ranks) with 5% / 50% / 95% of the vertices reached.
func BenchmarkAssemble(b *testing.B) {
	e := benchEngine(b)
	handles := rankHandles(e)
	for _, reached := range []float64{0.05, 0.50, 0.95} {
		rng := rand.New(rand.NewSource(2))
		rc := &runCommon{bases: make([]*valueBase, len(handles))}
		for _, r := range handles {
			wl := newMultiState(e, r, fullTrees(0))
			st := wl.planes[0]
			for i := 0; i < st.rg.LocalN; i++ {
				if _, hub := e.Part.Hubs.HubOf(e.Part.Layout.GlobalOf(r.ID, int32(i))); !hub && rng.Float64() < reached {
					st.parentL[i] = int64(i)
				}
			}
			for h := range st.parentHub {
				st.parentHub[h] = int64(h)
			}
			rc.bases[r.ID] = &wl.valueBase
		}
		b.Run(fmt.Sprintf("reached=%.0f%%", 100*reached), func(b *testing.B) {
			b.ReportAllocs()
			res := &Result{Target: -1}
			for i := 0; i < b.N; i++ {
				e.assemble(rc, []*Result{res})
				benchSink += res.TraversedEdges
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(e.Part.Layout.N), "ns/vertex")
		})
	}
}

// BenchmarkPlaneConstruct times building one rank's BFS workload — the
// stacked backings, parent arrays and planes every run allocates — for one
// query and for a full daemon batch.
func BenchmarkPlaneConstruct(b *testing.B) {
	e := benchEngine(b)
	r := rankHandles(e)[0]
	for _, q := range []int{1, 8} {
		roots := make([]int64, q)
		b.Run(fmt.Sprintf("queries=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += int64(len(newMultiState(e, r, fullTrees(roots...)).planes))
			}
		})
	}
}
