package partition

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/rmat"
	"repro/internal/topology"
)

func TestThresholds(t *testing.T) {
	th := Thresholds{E: 100, H: 10}
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		deg  int64
		want Class
	}{
		{0, ClassL}, {9, ClassL}, {10, ClassH}, {99, ClassH}, {100, ClassE}, {1 << 40, ClassE},
	}
	for _, c := range cases {
		if got := th.ClassOf(c.deg); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.deg, got, c.want)
		}
	}
	if err := (Thresholds{E: 5, H: 10}).Validate(); err == nil {
		t.Fatal("E < H should be rejected")
	}
	if err := (Thresholds{E: 5, H: 0}).Validate(); err == nil {
		t.Fatal("H = 0 should be rejected")
	}
}

func TestLayoutOwnership(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	l := NewLayout(10, mesh)
	if l.PerRank != 64 {
		t.Fatalf("PerRank = %d, want 64 (word-aligned)", l.PerRank)
	}
	big := NewLayout(1000, mesh)
	if big.PerRank != 256 {
		t.Fatalf("PerRank = %d, want 256 (ceil(1000/4)=250 rounded to 64)", big.PerRank)
	}
	// Every vertex has exactly one owner; round trips hold.
	owned := map[int64]bool{}
	for r := 0; r < 4; r++ {
		for i := 0; i < l.LocalCount(r); i++ {
			v := l.GlobalOf(r, int32(i))
			if owned[v] {
				t.Fatalf("vertex %d owned twice", v)
			}
			owned[v] = true
			if l.Owner(v) != r || l.LocalIdx(v) != int32(i) {
				t.Fatalf("round trip failed for %d", v)
			}
		}
	}
	if len(owned) != 10 {
		t.Fatalf("%d vertices owned, want 10", len(owned))
	}
}

func TestLayoutProperty(t *testing.T) {
	f := func(nRaw uint16, rows, cols uint8, vRaw uint16) bool {
		mesh := topology.Mesh{Rows: int(rows%4) + 1, Cols: int(cols%4) + 1}
		n := int64(nRaw) + int64(mesh.Size()) // at least one per rank
		l := NewLayout(n, mesh)
		v := int64(vRaw) % n
		r := l.Owner(v)
		if r < 0 || r >= l.P {
			return false
		}
		return l.GlobalOf(r, l.LocalIdx(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildHubDirOrdering(t *testing.T) {
	degrees := []int64{5, 200, 50, 300, 7, 50}
	d, err := BuildHubDir(degrees, Thresholds{E: 100, H: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumE != 2 || d.NumH != 2 {
		t.Fatalf("NumE=%d NumH=%d, want 2 and 2", d.NumE, d.NumH)
	}
	// E hubs by degree desc: vertex 3 (300), vertex 1 (200); then H: 2 and 5
	// (both 50, tie broken by id).
	wantOrig := []int64{3, 1, 2, 5}
	for i, w := range wantOrig {
		if d.Orig[i] != w {
			t.Fatalf("Orig[%d] = %d, want %d", i, d.Orig[i], w)
		}
	}
	for i, orig := range d.Orig {
		h, ok := d.HubOf(orig)
		if !ok || h != int32(i) {
			t.Fatalf("HubOf(%d) = %d,%v", orig, h, ok)
		}
	}
	if _, ok := d.HubOf(0); ok {
		t.Fatal("light vertex reported as hub")
	}
	if !d.IsE(0) || !d.IsE(1) || d.IsE(2) {
		t.Fatal("IsE boundaries wrong")
	}
}

func buildSmall(t *testing.T, scale int, mesh topology.Mesh, th Thresholds) (*Partitioned, []rmat.Edge, int64) {
	t.Helper()
	cfg := rmat.Config{Scale: scale, Seed: 11}
	edges := rmat.Generate(cfg)
	p, err := Build(cfg.NumVertices(), edges, mesh, th, 4)
	if err != nil {
		t.Fatal(err)
	}
	return p, edges, cfg.NumVertices()
}

func TestBuildTilesEveryEdge(t *testing.T) {
	// The six components must exactly tile the directed version of the input
	// multigraph: total stored directed edges = 2 * (edges minus self loops).
	mesh := topology.Mesh{Rows: 2, Cols: 3}
	p, edges, _ := buildSmall(t, 10, mesh, Thresholds{E: 256, H: 32})
	var nonLoop int64
	for _, e := range edges {
		if e.U != e.V {
			nonLoop++
		}
	}
	if got := p.TotalEdges(); got != 2*nonLoop {
		t.Fatalf("stored %d directed edges, want %d", got, 2*nonLoop)
	}
}

func TestBuildComponentPlacementInvariants(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	p, _, _ := buildSmall(t, 9, mesh, Thresholds{E: 200, H: 30})
	hubs := p.Hubs
	for r, rg := range p.Ranks {
		row, col := mesh.RowOf(r), mesh.ColOf(r)
		// EHPush: all srcs in my column block, all dsts in my row block.
		for i, src := range rg.EHPush.IDs {
			if hubs.ColBlockOf(src, mesh) != col {
				t.Fatalf("rank %d: EHPush src %d not in column %d", r, src, col)
			}
			for _, dst := range rg.EHPush.Adj[rg.EHPush.Ptr[i]:rg.EHPush.Ptr[i+1]] {
				if hubs.RowBlockOf(dst, mesh) != row {
					t.Fatalf("rank %d: EHPush dst %d not in row %d", r, dst, row)
				}
			}
		}
		// EHPull mirrors EHPush.
		if rg.EHPull.NumEdges() != rg.EHPush.NumEdges() {
			t.Fatalf("rank %d: pull %d edges vs push %d", r, rg.EHPull.NumEdges(), rg.EHPush.NumEdges())
		}
		// EToL: only E hubs as sources; dsts are valid local indices.
		for i, hub := range rg.EToL.IDs {
			if !hubs.IsE(hub) {
				t.Fatalf("rank %d: EToL hub %d is not E", r, hub)
			}
			for _, lidx := range rg.EToL.Adj[rg.EToL.Ptr[i]:rg.EToL.Ptr[i+1]] {
				if int(lidx) >= rg.LocalN {
					t.Fatalf("rank %d: EToL lidx %d out of %d", r, lidx, rg.LocalN)
				}
			}
		}
		// HToL: only H hubs in my column block; destinations in my row.
		for i, hub := range rg.HToL.IDs {
			if hubs.IsE(hub) {
				t.Fatalf("rank %d: HToL hub %d is E", r, hub)
			}
			if hubs.ColBlockOf(hub, mesh) != col {
				t.Fatalf("rank %d: HToL hub %d not in column %d", r, hub, col)
			}
			for _, rem := range rg.HToL.Adj[rg.HToL.Ptr[i]:rg.HToL.Ptr[i+1]] {
				owner := mesh.RankAt(row, int(rem.Col))
				if int(rem.LIdx) >= p.Layout.LocalCount(owner) {
					t.Fatalf("rank %d: HToL lidx %d out of range at owner %d", r, rem.LIdx, owner)
				}
			}
		}
		// LToE/LToH adjacency: hubs of the right class.
		for li := 0; li < rg.LocalN; li++ {
			for _, hub := range rg.LToE.Adj[rg.LToE.Ptr[li]:rg.LToE.Ptr[li+1]] {
				if !hubs.IsE(hub) {
					t.Fatalf("rank %d: LToE hub %d not E", r, hub)
				}
			}
			for _, hub := range rg.LToH.Adj[rg.LToH.Ptr[li]:rg.LToH.Ptr[li+1]] {
				if hubs.IsE(hub) {
					t.Fatalf("rank %d: LToH hub %d is E", r, hub)
				}
			}
			// L2L destinations are light vertices.
			for _, dst := range rg.L2L.Adj[rg.L2L.Ptr[li]:rg.L2L.Ptr[li+1]] {
				if _, isHub := hubs.HubOf(dst); isHub {
					t.Fatalf("rank %d: L2L dst %d is a hub", r, dst)
				}
			}
		}
	}
}

func TestBuildRoundTripsEdges(t *testing.T) {
	// Reconstruct the undirected edge multiset from the six components and
	// compare to the input (excluding self loops).
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	cfg := rmat.Config{Scale: 8, Seed: 12}
	edges := rmat.Generate(cfg)
	p, err := Build(cfg.NumVertices(), edges, mesh, Thresholds{E: 150, H: 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	type dir struct{ u, v int64 }
	want := map[dir]int{}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		want[dir{e.U, e.V}]++
		want[dir{e.V, e.U}]++
	}
	got := map[dir]int{}
	hubs := p.Hubs
	for r, rg := range p.Ranks {
		for i, src := range rg.EHPush.IDs {
			for _, dst := range rg.EHPush.Adj[rg.EHPush.Ptr[i]:rg.EHPush.Ptr[i+1]] {
				got[dir{hubs.Orig[src], hubs.Orig[dst]}]++
			}
		}
		for i, hub := range rg.EToL.IDs {
			for _, lidx := range rg.EToL.Adj[rg.EToL.Ptr[i]:rg.EToL.Ptr[i+1]] {
				got[dir{hubs.Orig[hub], p.Layout.GlobalOf(r, lidx)}]++
			}
		}
		row := mesh.RowOf(r)
		for i, hub := range rg.HToL.IDs {
			for _, rem := range rg.HToL.Adj[rg.HToL.Ptr[i]:rg.HToL.Ptr[i+1]] {
				owner := mesh.RankAt(row, int(rem.Col))
				got[dir{hubs.Orig[hub], p.Layout.GlobalOf(owner, rem.LIdx)}]++
			}
		}
		for li := 0; li < rg.LocalN; li++ {
			u := p.Layout.GlobalOf(r, int32(li))
			for _, hub := range rg.LToE.Adj[rg.LToE.Ptr[li]:rg.LToE.Ptr[li+1]] {
				got[dir{u, hubs.Orig[hub]}]++
			}
			for _, hub := range rg.LToH.Adj[rg.LToH.Ptr[li]:rg.LToH.Ptr[li+1]] {
				got[dir{u, hubs.Orig[hub]}]++
			}
			for _, dst := range rg.L2L.Adj[rg.L2L.Ptr[li]:rg.L2L.Ptr[li+1]] {
				got[dir{u, dst}]++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct directed edges: got %d, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("edge %v count %d, want %d", k, got[k], c)
		}
	}
}

func TestDegenerateNoH(t *testing.T) {
	// E threshold == H threshold ⇒ no H vertices: H2L and L2H must be empty
	// (the 1D-with-delegates degeneration of Section 4.1).
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	p, _, _ := buildSmall(t, 9, mesh, Thresholds{E: 64, H: 64})
	if p.Hubs.NumH != 0 {
		t.Fatalf("NumH = %d, want 0", p.Hubs.NumH)
	}
	for r, rg := range p.Ranks {
		if rg.CompEdges[CompH2L] != 0 || rg.CompEdges[CompL2H] != 0 {
			t.Fatalf("rank %d has H edges in no-H degeneration", r)
		}
	}
}

func TestDegenerateAllHubs(t *testing.T) {
	// H threshold 1 ⇒ every connected vertex is a hub: everything lands in
	// EH2EH (the 2D degeneration).
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	p, _, _ := buildSmall(t, 8, mesh, Thresholds{E: 1 << 20, H: 1})
	for r, rg := range p.Ranks {
		for c := CompE2L; c < NumComponents; c++ {
			if rg.CompEdges[c] != 0 {
				t.Fatalf("rank %d has %v edges in all-hub degeneration", r, c)
			}
		}
	}
}

func TestBalanceStats(t *testing.T) {
	mesh := topology.Mesh{Rows: 4, Cols: 4}
	p, _, _ := buildSmall(t, 12, mesh, Thresholds{E: 1024, H: 64})
	for _, st := range p.Balance() {
		if len(st.PerRank) != 16 {
			t.Fatalf("%v: %d ranks", st.Component, len(st.PerRank))
		}
		if st.Min > st.Max {
			t.Fatalf("%v: min %d > max %d", st.Component, st.Min, st.Max)
		}
		var sum int64
		for _, v := range st.PerRank {
			sum += v
		}
		if mean := float64(sum) / 16; mean != st.Mean {
			t.Fatalf("%v: mean %g, want %g", st.Component, st.Mean, mean)
		}
	}
}

func TestBuildWorkerInvariance(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	cfg := rmat.Config{Scale: 9, Seed: 13}
	edges := rmat.Generate(cfg)
	a, err := Build(cfg.NumVertices(), edges, mesh, Thresholds{E: 128, H: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		b, err := Build(cfg.NumVertices(), edges, mesh, Thresholds{E: 128, H: 16}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for r := range a.Ranks {
			if !reflect.DeepEqual(a.Ranks[r], b.Ranks[r]) {
				t.Fatalf("rank %d: graph built with %d workers differs from 1 worker", r, workers)
			}
		}
	}
}

func TestHubOfBoundaries(t *testing.T) {
	degrees := []int64{5, 200, 50, 300, 7, 50, 0, 49}
	d, err := BuildHubDir(degrees, Thresholds{E: 100, H: 50})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    int64
		hub  int32
		isHb bool
	}{
		{-1, 0, false}, {-1 << 40, 0, false}, {int64(len(degrees)), 0, false}, {1 << 40, 0, false},
		{3, 0, true}, {1, 1, true}, {2, 2, true}, {5, 3, true},
		{0, 0, false}, {4, 0, false}, {6, 0, false}, {7, 0, false},
	}
	for _, c := range cases {
		h, ok := d.HubOf(c.v)
		if h != c.hub || ok != c.isHb {
			t.Errorf("HubOf(%d) = %d,%v, want %d,%v", c.v, h, ok, c.hub, c.isHb)
		}
		if c.v >= 0 && c.v < int64(len(degrees)) {
			want := int32(-1)
			if c.isHb {
				want = c.hub
			}
			if got := d.hubID(c.v); got != want {
				t.Errorf("hubID(%d) = %d, want %d", c.v, got, want)
			}
		}
	}
}

// TestDegreeCensusMemoryFlat checks that the census's transient memory
// does not grow with the worker count.
func TestDegreeCensusMemoryFlat(t *testing.T) {
	cfg := rmat.Config{Scale: 14, Seed: 5}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	alloc := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		computeDegrees(n, edges, workers)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, sixteen := alloc(1), alloc(16)
	if sixteen > one+16<<10 {
		t.Fatalf("census allocated %d bytes with 16 workers, %d with 1", sixteen, one)
	}
	if limit := uint64(censusShards+1) * uint64(n) * 8; one > limit {
		t.Fatalf("census allocated %d bytes, more than %d", one, limit)
	}
	want := make([]int64, n)
	for _, e := range edges {
		if e.U != e.V {
			want[e.U]++
			want[e.V]++
		}
	}
	for _, workers := range []int{1, 3, 16} {
		if !reflect.DeepEqual(computeDegrees(n, edges, workers), want) {
			t.Fatalf("census with %d workers miscounts", workers)
		}
	}
}

// BenchmarkBuildScale16 is Kernel 1 on a 4x4 mesh; besides ns/op it
// reports allocations and each stage's mean wall time from BuildStats.
func BenchmarkBuildScale16(b *testing.B) {
	benchmarkBuild(b, 16, topology.Mesh{Rows: 4, Cols: 4}, Thresholds{E: 4096, H: 256})
}

// BenchmarkBuildScale18 is the analytics workload's shape: SCALE 18 on a
// 2x2 mesh with the engine's default thresholds for that scale.
func BenchmarkBuildScale18(b *testing.B) {
	benchmarkBuild(b, 18, topology.Mesh{Rows: 2, Cols: 2}, Thresholds{E: 2048, H: 128})
}

func benchmarkBuild(b *testing.B, scale int, mesh topology.Mesh, th Thresholds) {
	cfg := rmat.Config{Scale: scale, Seed: 1}
	edges := rmat.Generate(cfg)
	var st BuildStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Build(cfg.NumVertices(), edges, mesh, th, 0)
		if err != nil {
			b.Fatal(err)
		}
		st.DegreesSeconds += p.Stats.DegreesSeconds
		st.HubDirSeconds += p.Stats.HubDirSeconds
		st.DistributeSeconds += p.Stats.DistributeSeconds
		st.AssembleSeconds += p.Stats.AssembleSeconds
	}
	perOp := 1e9 / float64(b.N)
	b.ReportMetric(st.DegreesSeconds*perOp, "degrees-ns/op")
	b.ReportMetric(st.HubDirSeconds*perOp, "hubdir-ns/op")
	b.ReportMetric(st.DistributeSeconds*perOp, "distribute-ns/op")
	b.ReportMetric(st.AssembleSeconds*perOp, "assemble-ns/op")
}
