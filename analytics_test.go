package graph500

import (
	"math"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/trace"
)

func mustRunner(t *testing.T, g Graph, cfg Config) *Runner {
	t.Helper()
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSSSPPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 23})
	r := mustRunner(t, g, Config{Ranks: 4})
	res, err := r.SSSPValidated(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1] != 0 || res.Parent[1] != 1 {
		t.Fatal("root state wrong")
	}
	// BFS reachability and SSSP reachability agree on an undirected graph.
	bfs, err := r.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		bfsReached := bfs.Parent[v] >= 0
		ssspReached := res.Parent[v] >= 0
		if bfsReached != ssspReached {
			t.Fatalf("vertex %d: BFS reached=%v, SSSP reached=%v", v, bfsReached, ssspReached)
		}
	}
	// Weight accessor is consistent and symmetric.
	if r.EdgeWeight(3, 9, 5) != r.EdgeWeight(9, 3, 5) {
		t.Fatal("EdgeWeight not symmetric")
	}
}

func TestSSSPDistanceBelowHops(t *testing.T) {
	// With weights < 1, shortest distance is strictly below the hop count
	// except trivially; sanity-check dist ≤ hops for every vertex.
	g := Generate(GenConfig{Scale: 8, Seed: 24})
	r := mustRunner(t, g, Config{Ranks: 4})
	res, err := r.SSSPValidated(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := r.RunValidated(0)
	if err != nil {
		t.Fatal(err)
	}
	// hops via parent chains
	for v := int64(0); v < g.NumVertices; v++ {
		if bfs.Parent[v] < 0 {
			continue
		}
		hops := 0
		for u := v; u != 0; u = bfs.Parent[u] {
			hops++
			if hops > 1000 {
				t.Fatal("parent chain too long")
			}
		}
		if res.Dist[v] > float64(hops)+1e-9 {
			t.Fatalf("dist[%d] = %g exceeds hop count %d with sub-unit weights", v, res.Dist[v], hops)
		}
	}
}

func TestAnalyticsPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 25})
	r := mustRunner(t, g, Config{Ranks: 4})
	pr, err := r.PageRank(0.85, 1e-8, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pr.Rank {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank mass %g", sum)
	}
	wcc, err := r.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if wcc.Components <= 0 {
		t.Fatal("no components found")
	}
	// Every edge's endpoints share a label.
	for _, e := range g.Edges {
		if wcc.Label[e.U] != wcc.Label[e.V] {
			t.Fatalf("edge (%d,%d) spans components %d and %d", e.U, e.V, wcc.Label[e.U], wcc.Label[e.V])
		}
	}
}

// TestRunnerConfigReachesAnalytics: the analytics methods run on the Runner's
// engine, so Config.Trace and Config.Transport apply to them as they do to BFS.
// Under a seeded fault plan each workload must retry, record kernel spans,
// and still match a fault-free Runner exactly.
func TestRunnerConfigReachesAnalytics(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 29})
	clean := mustRunner(t, g, Config{Ranks: 4})
	plan := faultinject.New(31)
	plan.FailProb = 0.02
	tr := trace.New()
	faulty := mustRunner(t, g, Config{Ranks: 4, Transport: plan, Trace: tr,
		MaxRetries: 12, RetryBackoff: 20 * time.Microsecond})
	equal := func(a, b *WorkloadResult) bool {
		for v := range a.Rank {
			if math.Float64bits(a.Rank[v]) != math.Float64bits(b.Rank[v]) {
				return false
			}
		}
		for v := range a.Label {
			if a.Label[v] != b.Label[v] {
				return false
			}
		}
		for v := range a.Dist {
			if a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] {
				return false
			}
		}
		return true
	}
	for _, w := range []struct {
		name string
		run  func(r *Runner) (*WorkloadResult, error)
	}{
		{"pagerank", func(r *Runner) (*WorkloadResult, error) { return r.PageRank(0.85, 0, 40) }},
		{"wcc", (*Runner).ConnectedComponents},
		{"sssp", func(r *Runner) (*WorkloadResult, error) { return r.SSSP(1, 5) }},
	} {
		want, err := w.run(clean)
		if err != nil {
			t.Fatalf("fault-free %s: %v", w.name, err)
		}
		tr.Reset()
		got, err := w.run(faulty)
		if err != nil {
			t.Fatalf("faulted %s: %v", w.name, err)
		}
		kernels := 0
		for _, sp := range tr.Spans() {
			if sp.Kind == trace.KindKernel {
				kernels++
			}
		}
		if kernels == 0 {
			t.Errorf("%s recorded no kernel spans", w.name)
		}
		if got.Retries == 0 {
			t.Errorf("%s never retried under the fault plan", w.name)
		}
		if !equal(got, want) {
			t.Errorf("%s under faults differs from the fault-free run", w.name)
		}
	}
}

func TestSubIterationBeatsWholeIterationEdges(t *testing.T) {
	// With the tuned heuristics, sub-iteration direction optimization must
	// touch no more edges than vanilla whole-iteration direction
	// optimization on a dense R-MAT graph (the paper's Figure 15 claim).
	g := Generate(GenConfig{Scale: 14, Seed: 26})
	run := func(mode DirectionMode) int64 {
		r, err := New(g, Config{Ranks: 4, Direction: mode})
		if err != nil {
			t.Fatal(err)
		}
		roots, err := r.SampleRoots(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunValidated(roots[0])
		if err != nil {
			t.Fatal(err)
		}
		return res.Recorder.TotalEdges()
	}
	sub := run(SubIterationDirections)
	whole := run(WholeIterationDirection)
	push := run(PushOnly)
	// Direction optimization of either flavor must slash plain top-down work.
	if sub*2 > push {
		t.Fatalf("sub-iteration touched %d edges vs %d push-only; expected >2x saving", sub, push)
	}
	// Sub-iteration must be competitive with whole-iteration (allow a few
	// percent of per-instance noise; on aggregate it wins, per Figure 15).
	if float64(sub) > 1.05*float64(whole) {
		t.Fatalf("sub-iteration touched %d edges, whole-iteration %d", sub, whole)
	}
}

func TestReachabilityPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 27})
	r := mustRunner(t, g, Config{Ranks: 4})
	masks, err := r.Reachability([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if masks[1]&1 == 0 || masks[2]&2 == 0 {
		t.Fatal("sources do not reach themselves")
	}
	// Cross-check against single-source BFS reachability.
	bfs, err := r.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if (bfs.Parent[v] >= 0) != (masks[v]&1 != 0) {
			t.Fatalf("vertex %d: BFS and Reachability disagree", v)
		}
	}
}

// TestReachabilityMatchesBFS checks every bit against a sequential BFS,
// including a source listed twice and a source with no edges.
func TestReachabilityMatchesBFS(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 83})
	r := mustRunner(t, g, Config{Ranks: 4})
	isolated := int64(-1)
	for v, d := range r.Degrees() {
		if d == 0 {
			isolated = int64(v)
			break
		}
	}
	if isolated < 0 {
		t.Fatal("graph has no isolated vertex")
	}
	sources := []int64{0, 7, 99, 500, 7, isolated}
	masks, err := r.Reachability(sources)
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.FromEdges(g.NumVertices, g.Edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for s, src := range sources {
		parent := csr.SequentialBFS(src)
		for v := int64(0); v < g.NumVertices; v++ {
			want := parent[v] >= 0
			if got := masks[v]&(1<<uint(s)) != 0; got != want {
				t.Fatalf("source %d (bit %d) vertex %d: reachability %v, BFS says %v", src, s, v, got, want)
			}
		}
	}
}

func TestReachabilityAllSixtyFourSources(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 84})
	r := mustRunner(t, g, Config{Ranks: 4})
	sources := make([]int64, 64)
	for i := range sources {
		sources[i] = int64(i * 3)
	}
	masks, err := r.Reachability(sources)
	if err != nil {
		t.Fatal(err)
	}
	for s, src := range sources {
		if masks[src]&(1<<uint(s)) == 0 {
			t.Fatalf("source %d does not reach itself", src)
		}
	}
}

func TestReachabilityValidatesInput(t *testing.T) {
	g := Generate(GenConfig{Scale: 6, Seed: 85})
	r := mustRunner(t, g, Config{Ranks: 2})
	for _, bad := range [][]int64{nil, make([]int64, 65), {-1}, {g.NumVertices}} {
		if _, err := r.Reachability(bad); err == nil {
			t.Fatalf("sources %v accepted", bad)
		}
	}
}

func TestKCorePublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 28})
	r := mustRunner(t, g, Config{Ranks: 4})
	core2, err := r.KCore(2)
	if err != nil {
		t.Fatal(err)
	}
	core8, err := r.KCore(8)
	if err != nil {
		t.Fatal(err)
	}
	if core8.CoreSize > core2.CoreSize {
		t.Fatalf("8-core (%d) larger than 2-core (%d)", core8.CoreSize, core2.CoreSize)
	}
}
