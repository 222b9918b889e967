package core

import (
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/sssp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ssspWeightOptions is a non-square mesh with thresholds low enough that
// every rank stores edges in several of the six components, so a weight
// table indexed by the wrong mesh column or the wrong L2L id shows.
func ssspWeightOptions(tr *trace.Tracer) Options {
	return Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 3},
		Thresholds: partition.Thresholds{E: 128, H: 16},
		Trace:      tr,
	}
}

// TestSSSPWeightsMatchHash checks every entry of every rank's weight table,
// at two seeds, against sssp.WeightOf of the stored edge's endpoints, and
// that those endpoints are an edge of the input graph: a table entry built
// from a mis-mapped endpoint names a pair that is not an edge.
func TestSSSPWeightsMatchHash(t *testing.T) {
	n, edges := rmatEdges(t, 10, 3)
	type pair struct{ a, b int64 }
	isEdge := make(map[pair]bool, 2*len(edges))
	for _, e := range edges {
		isEdge[pair{e.U, e.V}], isEdge[pair{e.V, e.U}] = true, true
	}
	eng, err := NewEngine(n, edges, ssspWeightOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	orig := eng.Part.Hubs.Orig
	layout := eng.Part.Layout
	mesh := eng.Opt.Mesh
	root := firstConnectedRootOf(eng)
	for _, seed := range []uint64{7, 1<<40 + 3} {
		if _, err := eng.RunSSSP(root, seed, 0); err != nil {
			t.Fatalf("seed %d: RunSSSP: %v", seed, err)
		}
		var stored [partition.NumComponents]int64
		for r, rg := range eng.Part.Ranks {
			tab := &eng.ssspW[r]
			if !tab.built || tab.seed != seed {
				t.Fatalf("seed %d rank %d: table built=%v for seed %d", seed, r, tab.built, tab.seed)
			}
			check := func(c partition.Component, j int64, u, v int64) {
				t.Helper()
				if !isEdge[pair{u, v}] {
					t.Fatalf("seed %d rank %d %v[%d]: (%d,%d) is not an input edge", seed, r, c, j, u, v)
				}
				want := sssp.WeightOf(u, v, seed)
				if got := tab.w[c][j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d rank %d %v[%d] (%d,%d): weight %v, want %v", seed, r, c, j, u, v, got, want)
				}
				stored[c]++
			}
			for c, adjLen := range []int{len(rg.EHPush.Adj), len(rg.EToL.Adj), len(rg.HToL.Adj),
				len(rg.LToE.Adj), len(rg.LToH.Adj), len(rg.L2L.Adj)} {
				if len(tab.w[c]) != adjLen {
					t.Fatalf("seed %d rank %d %v: %d weights for %d stored edges",
						seed, r, partition.Component(c), len(tab.w[c]), adjLen)
				}
			}
			for i, src := range rg.EHPush.IDs {
				for j := rg.EHPush.Ptr[i]; j < rg.EHPush.Ptr[i+1]; j++ {
					check(partition.CompEH2EH, j, orig[src], orig[rg.EHPush.Adj[j]])
				}
			}
			for i, hub := range rg.EToL.IDs {
				for j := rg.EToL.Ptr[i]; j < rg.EToL.Ptr[i+1]; j++ {
					check(partition.CompE2L, j, orig[hub], layout.GlobalOf(r, rg.EToL.Adj[j]))
				}
			}
			for i, hub := range rg.HToL.IDs {
				for j := rg.HToL.Ptr[i]; j < rg.HToL.Ptr[i+1]; j++ {
					rem := rg.HToL.Adj[j]
					owner := mesh.RankAt(mesh.RowOf(r), int(rem.Col))
					check(partition.CompH2L, j, orig[hub], layout.GlobalOf(owner, rem.LIdx))
				}
			}
			for li := 0; li < rg.LocalN; li++ {
				u := layout.GlobalOf(r, int32(li))
				for j := rg.LToE.Ptr[li]; j < rg.LToE.Ptr[li+1]; j++ {
					check(partition.CompL2E, j, u, orig[rg.LToE.Adj[j]])
				}
				for j := rg.LToH.Ptr[li]; j < rg.LToH.Ptr[li+1]; j++ {
					check(partition.CompL2H, j, u, orig[rg.LToH.Adj[j]])
				}
				for j := rg.L2L.Ptr[li]; j < rg.L2L.Ptr[li+1]; j++ {
					check(partition.CompL2L, j, u, rg.L2L.Adj[j])
				}
			}
		}
		for c, k := range stored {
			if k == 0 {
				t.Fatalf("seed %d: no rank stores a %v edge; the case does not cover it", seed, partition.Component(c))
			}
		}
	}
}

// TestSSSPWeightSeedSwitch runs one traced engine under a sequence of weight
// seeds: each result must be bit-identical to a fresh engine's at that seed,
// and every rank must rebuild its table (one sssp_weights span) exactly when
// the seed differs from its previous run's.
func TestSSSPWeightSeedSwitch(t *testing.T) {
	n, edges := rmatEdges(t, 10, 4)
	tr := trace.New()
	eng, err := NewEngine(n, edges, ssspWeightOptions(tr))
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(eng)
	ranks := eng.Opt.Ranks
	builds := 0
	for i, run := range []struct {
		seed  uint64
		build bool
	}{{7, true}, {7, false}, {8, true}, {7, true}} {
		got, err := eng.RunSSSP(root, run.seed, 0)
		if err != nil {
			t.Fatalf("run %d (seed %d): %v", i, run.seed, err)
		}
		fresh, err := NewEngine(n, edges, ssspWeightOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunSSSP(root, run.seed, 0)
		if err != nil {
			t.Fatalf("run %d (seed %d) on a fresh engine: %v", i, run.seed, err)
		}
		for v := range want.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
				t.Fatalf("run %d (seed %d) vertex %d: (dist %v, parent %d), fresh engine (dist %v, parent %d)",
					i, run.seed, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
		if run.build {
			builds++
		}
		perRank := map[int]int{}
		for _, sp := range tr.Spans() {
			if sp.Name != "sssp_weights" {
				continue
			}
			perRank[sp.Rank]++
			if sp.Kind != trace.KindEvent || sp.Args["bytes"] != 8*sp.Args["edges"] || sp.Args["edges"] <= 0 {
				t.Fatalf("run %d: malformed sssp_weights span %+v", i, sp)
			}
		}
		if len(perRank) != ranks {
			t.Fatalf("run %d: sssp_weights spans on %d ranks, want %d", i, len(perRank), ranks)
		}
		for r, k := range perRank {
			if k != builds {
				t.Fatalf("run %d (seed %d): rank %d built its table %d times, want %d", i, run.seed, r, k, builds)
			}
		}
	}
}
