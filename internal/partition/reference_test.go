package partition

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/psort"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// TestBuildMatchesReference pins Build to the implementation it replaced,
// byte for byte, across scales, meshes (including rank counts that do not
// divide N), worker counts and degenerate thresholds, on R-MAT edge lists
// extended with self loops and duplicate edges.
func TestBuildMatchesReference(t *testing.T) {
	maxScale := 14
	if testing.Short() {
		maxScale = 11
	}
	meshes := []topology.Mesh{{Rows: 1, Cols: 1}, {Rows: 1, Cols: 3}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}, {Rows: 3, Cols: 2}}
	for scale := 9; scale <= maxScale; scale++ {
		cfg := rmat.Config{Scale: scale, Seed: uint64(70 + scale)}
		edges := rmat.Generate(cfg)
		for i := 0; i < 64; i++ {
			v := int64(i*37) % cfg.NumVertices()
			edges = append(edges, rmat.Edge{U: v, V: v}, edges[i], rmat.Edge{U: edges[i].V, V: edges[i].U})
		}
		e := int64(1) << (scale/2 + 2)
		ths := []Thresholds{{E: e, H: max(e/16, 2)}}
		if scale == 9 {
			ths = append(ths, Thresholds{E: 64, H: 64}, Thresholds{E: 1 << 40, H: 1}, Thresholds{E: 1, H: 1})
		}
		for _, mesh := range meshes {
			for _, th := range ths {
				want, err := referenceBuild(cfg.NumVertices(), edges, mesh, th)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					got, err := Build(cfg.NumVertices(), edges, mesh, th, workers)
					if err != nil {
						t.Fatal(err)
					}
					samePartition(t, fmt.Sprintf("scale %d mesh %dx%d %+v workers %d", scale, mesh.Rows, mesh.Cols, th, workers), got, want)
				}
			}
		}
	}
}

// TestBuildMatchesReferenceOddN covers a vertex count that is neither a
// power of two nor a multiple of the rank count, with isolated vertices,
// an edge-free rank, and an empty edge list.
func TestBuildMatchesReferenceOddN(t *testing.T) {
	const n = 1000
	var edges []rmat.Edge
	for i := int64(0); i < 3000; i++ {
		u, v := (i*7919)%700, (i*i+13)%700
		edges = append(edges, rmat.Edge{U: u, V: v})
	}
	edges = append(edges, rmat.Edge{U: 999, V: 999}, rmat.Edge{U: 5, V: 998}, rmat.Edge{U: 5, V: 998})
	for _, mesh := range []topology.Mesh{{Rows: 1, Cols: 3}, {Rows: 3, Cols: 2}, {Rows: 2, Cols: 4}} {
		for _, es := range [][]rmat.Edge{edges, nil} {
			want, err := referenceBuild(n, es, mesh, Thresholds{E: 40, H: 12})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8} {
				got, err := Build(n, es, mesh, Thresholds{E: 40, H: 12}, workers)
				if err != nil {
					t.Fatal(err)
				}
				samePartition(t, fmt.Sprintf("mesh %dx%d edges %d workers %d", mesh.Rows, mesh.Cols, len(es), workers), got, want)
			}
		}
	}
}

// samePartition fails unless got and want hold identical layouts, degree
// vectors, hub directories and rank graphs (nil-ness of slices included).
func samePartition(t *testing.T, what string, got, want *Partitioned) {
	t.Helper()
	if got.Layout != want.Layout || !reflect.DeepEqual(got.Degrees, want.Degrees) {
		t.Fatalf("%s: layout or degrees differ", what)
	}
	if got.Hubs.NumE != want.Hubs.NumE || got.Hubs.NumH != want.Hubs.NumH ||
		!reflect.DeepEqual(got.Hubs.Orig, want.Hubs.Orig) || !reflect.DeepEqual(got.Hubs.Deg, want.Hubs.Deg) {
		t.Fatalf("%s: hub directories differ", what)
	}
	for r := range want.Ranks {
		if !reflect.DeepEqual(got.Ranks[r], want.Ranks[r]) {
			t.Fatalf("%s: rank %d graph differs", what, r)
		}
	}
}

// referenceBuild is the implementation Build replaced, kept as the oracle its
// output must equal byte for byte: a serial degree census, a hub lookup
// through a map built from the directory's hub order, placement of each
// orientation classifying both ends, per-component record streams
// appended in edge order, and a stable psort.Sorter pass per sparse
// component (EHPull re-sorts, by destination, the slice EHPush already
// sorted by source).
func referenceBuild(n int64, edges []rmat.Edge, mesh topology.Mesh, th Thresholds) (*Partitioned, error) {
	layout := NewLayout(n, mesh)
	degrees := make([]int64, n)
	for _, e := range edges {
		if e.U != e.V {
			degrees[e.U]++
			degrees[e.V]++
		}
	}
	hubs, err := BuildHubDir(degrees, th)
	if err != nil {
		return nil, err
	}
	hubOf := make(map[int64]int32, hubs.K())
	for h, v := range hubs.Orig {
		hubOf[v] = int32(h)
	}
	rb := make([]refRankBuf, mesh.Size())
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		refPlaceDirected(e.U, e.V, layout, hubs, hubOf, rb)
		refPlaceDirected(e.V, e.U, layout, hubs, hubOf, rb)
	}
	ranks := make([]*RankGraph, mesh.Size())
	for r := range ranks {
		ranks[r] = refAssembleRank(r, layout, rb[r])
	}
	return &Partitioned{Layout: layout, Hubs: hubs, Ranks: ranks, Degrees: degrees}, nil
}

type refHubHub struct{ src, dst int32 }
type refHubLoc struct{ hub, lidx int32 }
type refLocHub struct{ lidx, hub int32 }
type refHubRem struct {
	hub int32
	dst RemoteL
}
type refLocLoc struct {
	lidx int32
	dst  int64
}

type refRankBuf struct {
	eh  []refHubHub
	e2l []refHubLoc
	h2l []refHubRem
	l2e []refLocHub
	l2h []refLocHub
	l2l []refLocLoc
}

func refPlaceDirected(src, dst int64, layout Layout, hubs *HubDir, hubOf map[int64]int32, rb []refRankBuf) {
	hs, srcHub := hubOf[src]
	hd, dstHub := hubOf[dst]
	mesh := layout.Mesh
	switch {
	case srcHub && dstHub:
		q := mesh.RankAt(hubs.RowBlockOf(hd, mesh), hubs.ColBlockOf(hs, mesh))
		rb[q].eh = append(rb[q].eh, refHubHub{src: hs, dst: hd})
	case srcHub && !dstHub:
		owner := layout.Owner(dst)
		lidx := layout.LocalIdx(dst)
		if hubs.IsE(hs) {
			rb[owner].e2l = append(rb[owner].e2l, refHubLoc{hub: hs, lidx: lidx})
		} else {
			q := mesh.RankAt(mesh.RowOf(owner), hubs.ColBlockOf(hs, mesh))
			rb[q].h2l = append(rb[q].h2l, refHubRem{hub: hs, dst: RemoteL{Col: int32(mesh.ColOf(owner)), LIdx: lidx}})
		}
	case !srcHub && dstHub:
		owner := layout.Owner(src)
		lidx := layout.LocalIdx(src)
		if hubs.IsE(hd) {
			rb[owner].l2e = append(rb[owner].l2e, refLocHub{lidx: lidx, hub: hd})
		} else {
			rb[owner].l2h = append(rb[owner].l2h, refLocHub{lidx: lidx, hub: hd})
		}
	default:
		owner := layout.Owner(src)
		rb[owner].l2l = append(rb[owner].l2l, refLocLoc{lidx: layout.LocalIdx(src), dst: dst})
	}
}

func refAssembleRank(r int, layout Layout, b refRankBuf) *RankGraph {
	g := &RankGraph{Rank: r, LocalN: layout.LocalCount(r)}
	g.EHPush = refSparse(b.eh, func(x refHubHub) (int32, int32) { return x.src, x.dst })
	g.EHPull = refSparse(b.eh, func(x refHubHub) (int32, int32) { return x.dst, x.src })
	g.CompEdges[CompEH2EH] = int64(len(b.eh))
	g.EToL = refSparse(b.e2l, func(x refHubLoc) (int32, int32) { return x.hub, x.lidx })
	g.CompEdges[CompE2L] = int64(len(b.e2l))
	g.HToL = refHubRemote(b.h2l)
	g.CompEdges[CompH2L] = int64(len(b.h2l))
	g.LToE = refDense32(g.LocalN, b.l2e)
	g.LToH = refDense32(g.LocalN, b.l2h)
	g.CompEdges[CompL2E] = int64(len(b.l2e))
	g.CompEdges[CompL2H] = int64(len(b.l2h))
	g.L2L = refDense64(g.LocalN, b.l2l)
	g.CompEdges[CompL2L] = int64(len(b.l2l))
	return g
}

// refSparse stable-sorts recs in place by key and groups them.
func refSparse[T any](recs []T, kv func(T) (key, val int32)) SparseCSR {
	if len(recs) == 0 {
		return SparseCSR{Ptr: []int64{0}}
	}
	psort.Sorter[T]{Key: func(x T) uint64 {
		k, _ := kv(x)
		return uint64(uint32(k))
	}}.Sort(recs, 1)
	var csr SparseCSR
	csr.Adj = make([]int32, len(recs))
	last := int32(-1)
	for i, rec := range recs {
		k, v := kv(rec)
		if k != last {
			csr.IDs = append(csr.IDs, k)
			csr.Ptr = append(csr.Ptr, int64(i))
			last = k
		}
		csr.Adj[i] = v
	}
	csr.Ptr = append(csr.Ptr, int64(len(recs)))
	return csr
}

func refHubRemote(recs []refHubRem) HubToRemoteCSR {
	if len(recs) == 0 {
		return HubToRemoteCSR{Ptr: []int64{0}}
	}
	psort.Sorter[refHubRem]{Key: func(x refHubRem) uint64 { return uint64(uint32(x.hub)) }}.Sort(recs, 1)
	var csr HubToRemoteCSR
	csr.Adj = make([]RemoteL, len(recs))
	last := int32(-1)
	for i, rec := range recs {
		if rec.hub != last {
			csr.IDs = append(csr.IDs, rec.hub)
			csr.Ptr = append(csr.Ptr, int64(i))
			last = rec.hub
		}
		csr.Adj[i] = rec.dst
	}
	csr.Ptr = append(csr.Ptr, int64(len(recs)))
	return csr
}

func refDense32(n int, recs []refLocHub) DenseCSR32 {
	ptr := make([]int64, n+1)
	for _, rec := range recs {
		ptr[rec.lidx+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int32, len(recs))
	cursor := append([]int64(nil), ptr[:n]...)
	for _, rec := range recs {
		adj[cursor[rec.lidx]] = rec.hub
		cursor[rec.lidx]++
	}
	return DenseCSR32{Ptr: ptr, Adj: adj}
}

func refDense64(n int, recs []refLocLoc) DenseCSR64 {
	ptr := make([]int64, n+1)
	for _, rec := range recs {
		ptr[rec.lidx+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int64, len(recs))
	cursor := append([]int64(nil), ptr[:n]...)
	for _, rec := range recs {
		adj[cursor[rec.lidx]] = rec.dst
		cursor[rec.lidx]++
	}
	return DenseCSR64{Ptr: ptr, Adj: adj}
}
