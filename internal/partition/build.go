package partition

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rmat"
	"repro/internal/topology"
)

// SparseCSR is adjacency keyed by an explicit ID list: neighbors of IDs[i]
// are Adj[Ptr[i]:Ptr[i+1]]. Used for hub-keyed components, where only a few
// hubs have edges on a given rank.
type SparseCSR struct {
	IDs []int32
	Ptr []int64
	Adj []int32
}

// NumEdges returns the stored directed edge count.
func (c *SparseCSR) NumEdges() int64 { return int64(len(c.Adj)) }

// DenseCSR32 is adjacency over the rank's local vertex block with int32
// neighbor payloads (hub IDs).
type DenseCSR32 struct {
	Ptr []int64
	Adj []int32
}

// NumEdges returns the stored directed edge count.
func (c *DenseCSR32) NumEdges() int64 { return int64(len(c.Adj)) }

// DenseCSR64 is adjacency over the local block with int64 payloads
// (original vertex IDs), used by L2L.
type DenseCSR64 struct {
	Ptr []int64
	Adj []int64
}

// NumEdges returns the stored directed edge count.
func (c *DenseCSR64) NumEdges() int64 { return int64(len(c.Adj)) }

// RemoteL packs the destination of an H2L edge: the owner's mesh column and
// the local index at that owner (the owner's row equals this rank's row by
// construction, so the column suffices to address it).
type RemoteL struct {
	Col  int32
	LIdx int32
}

// HubToRemoteCSR is adjacency from hub IDs to remote L destinations.
type HubToRemoteCSR struct {
	IDs []int32
	Ptr []int64
	Adj []RemoteL
}

// NumEdges returns the stored directed edge count.
func (c *HubToRemoteCSR) NumEdges() int64 { return int64(len(c.Adj)) }

// RankGraph is one rank's share of the six components.
type RankGraph struct {
	Rank   int
	LocalN int

	EHPush SparseCSR      // EH2EH by source: src hubs in my mesh column's block
	EHPull SparseCSR      // EH2EH by destination: dst hubs in my row's block
	EToL   SparseCSR      // E2L: E hub -> local L index (at owner of L)
	HToL   HubToRemoteCSR // H2L: H hub -> L at a rank in my row
	LToE   DenseCSR32     // L2E: local L -> E hub (at owner of L)
	LToH   DenseCSR32     // L2H: local L -> H hub (at owner of L)
	L2L    DenseCSR64     // L2L: local L -> original remote vertex

	// CompEdges counts stored directed edges per component on this rank,
	// feeding the Figure 13 balance statistics.
	CompEdges [NumComponents]int64
}

// Partitioned is the full partitioning result.
type Partitioned struct {
	Layout Layout
	Hubs   *HubDir
	Ranks  []*RankGraph
	// Degrees of every original vertex (kept for root sampling and checks).
	Degrees []int64
	// Stats breaks down where Build spent its wall time, feeding the
	// report's setup block.
	Stats BuildStats
}

// BuildStats is the wall-time breakdown of Build. SortSeconds is the
// aggregate time inside the per-component counting passes (count, prefix
// sum, stable scatter, and the EHPull transpose) summed across the
// concurrently assembled ranks, so it can exceed AssembleSeconds wall time.
type BuildStats struct {
	DegreesSeconds    float64
	HubDirSeconds     float64
	DistributeSeconds float64
	AssembleSeconds   float64
	SortSeconds       float64
}

// rec is one placement record: the key its component groups by (a hub ID
// for the hub-keyed components, a local index for the dense ones) and the
// adjacency payload stored under it.
type rec[V any] struct {
	key int32
	val V
}

// recList is an append-only record stream kept in blocks that never move,
// so distribution never copies a record on growth. Block capacity doubles
// from minBlock to maxBlock, which bounds the unused tail of a list.
type recList[V any] struct {
	full [][]rec[V]
	tail []rec[V]
}

const (
	minBlock = 1 << 8
	maxBlock = 1 << 16
)

func (l *recList[V]) add(x rec[V]) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, x)
}

func (l *recList[V]) grow() {
	if l.tail != nil {
		l.full = append(l.full, l.tail)
	}
	l.tail = make([]rec[V], 0, min(minBlock<<len(l.full), maxBlock))
}

// segs appends the list's blocks, in order, to dst.
func (l *recList[V]) segs(dst [][]rec[V]) [][]rec[V] {
	return append(append(dst, l.full...), l.tail)
}

// rankBuf holds one distributor's records for one destination rank, per
// component, in edge order. EH2EH records are keyed by source hub.
type rankBuf struct {
	eh, e2l, l2e, l2h recList[int32]
	h2l               recList[RemoteL]
	l2l               recList[int64]
}

// censusShards is the number of private histograms the degree census
// counts into. It is fixed rather than the worker count, so the census
// holds censusShards×N counters on any host.
const censusShards = 4

// Build partitions the undirected edge list over the mesh with the given
// thresholds. Self loops are dropped; duplicate edges are kept (the Graph 500
// generator emits them and the kernels tolerate them). The result does not
// depend on workers.
func Build(n int64, edges []rmat.Edge, mesh topology.Mesh, th Thresholds, workers int) (*Partitioned, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	layout := NewLayout(n, mesh)
	t0 := time.Now()
	degrees := computeDegrees(n, edges, workers)
	t1 := time.Now()
	hubs, err := BuildHubDir(degrees, th)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	p := mesh.Size()

	// Distribution pass: workers scan contiguous edge chunks, each filling
	// its own per-rank buffers, so worker w's records follow worker w-1's
	// in edge order.
	bufs := make([][]rankBuf, workers)
	forChunks(len(edges), workers, func(w, lo, hi int) {
		bufs[w] = make([]rankBuf, p)
		distribute(edges[lo:hi], layout, hubs, bufs[w])
	})
	t3 := time.Now()

	// Assembly pass: one goroutine per rank reads every worker's records
	// for that rank in place, in worker order.
	ranks := make([]*RankGraph, p)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var sortNanos atomic.Int64
	for r := 0; r < p; r++ {
		var parts []rankBuf
		for _, b := range bufs {
			if b != nil {
				parts = append(parts, b[r])
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ranks[r] = assembleRank(r, layout, hubs.K(), parts, &sortNanos)
		}()
	}
	wg.Wait()
	t4 := time.Now()
	return &Partitioned{Layout: layout, Hubs: hubs, Ranks: ranks, Degrees: degrees, Stats: BuildStats{
		DegreesSeconds:    t1.Sub(t0).Seconds(),
		HubDirSeconds:     t2.Sub(t1).Seconds(),
		DistributeSeconds: t3.Sub(t2).Seconds(),
		AssembleSeconds:   t4.Sub(t3).Seconds(),
		SortSeconds:       float64(sortNanos.Load()) / 1e9,
	}}, nil
}

// forChunks splits [0, n) into at most parts contiguous chunks and runs
// fn(i, lo, hi) on each concurrently, chunk i covering [lo, hi).
func forChunks(n, parts int, fn func(i, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + parts - 1) / parts
	for i := 0; i*chunk < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, i*chunk, min(i*chunk+chunk, n))
		}()
	}
	wg.Wait()
}

// computeDegrees counts every vertex's non-loop edge ends into
// censusShards private histograms, then sums them into the first with the
// vertex range split over the workers.
func computeDegrees(n int64, edges []rmat.Edge, workers int) []int64 {
	shards := make([][]int64, censusShards)
	forChunks(len(edges), censusShards, func(s, lo, hi int) {
		h := make([]int64, n)
		for _, e := range edges[lo:hi] {
			if e.U != e.V {
				h[e.U]++
				h[e.V]++
			}
		}
		shards[s] = h
	})
	deg := shards[0]
	if deg == nil {
		return make([]int64, n)
	}
	forChunks(int(n), workers, func(_, lo, hi int) {
		d := deg[lo:hi]
		for _, h := range shards[1:] {
			if h != nil {
				for i, c := range h[lo:hi] {
					d[i] += c
				}
			}
		}
	})
	return deg
}

// distribute places both orientations of every non-loop edge into rb,
// classifying each endpoint once.
func distribute(edges []rmat.Edge, layout Layout, hubs *HubDir, rb []rankBuf) {
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		hu, hv := hubs.hubID(e.U), hubs.hubID(e.V)
		place(e.U, e.V, hu, hv, layout, hubs, rb)
		place(e.V, e.U, hv, hu, layout, hubs, rb)
	}
}

// place routes the directed edge src→dst, whose hub IDs (-1 for L) the
// caller looked up, to its component and rank.
func place(src, dst int64, hs, hd int32, layout Layout, hubs *HubDir, rb []rankBuf) {
	mesh := layout.Mesh
	switch {
	case hs >= 0 && hd >= 0:
		q := mesh.RankAt(hubs.RowBlockOf(hd, mesh), hubs.ColBlockOf(hs, mesh))
		rb[q].eh.add(rec[int32]{hs, hd})
	case hs >= 0:
		owner, lidx := layout.Owner(dst), layout.LocalIdx(dst)
		if hubs.IsE(hs) {
			rb[owner].e2l.add(rec[int32]{hs, lidx})
		} else {
			q := mesh.RankAt(mesh.RowOf(owner), hubs.ColBlockOf(hs, mesh))
			rb[q].h2l.add(rec[RemoteL]{hs, RemoteL{Col: int32(mesh.ColOf(owner)), LIdx: lidx}})
		}
	case hd >= 0:
		owner, lidx := layout.Owner(src), layout.LocalIdx(src)
		if hubs.IsE(hd) {
			rb[owner].l2e.add(rec[int32]{lidx, hd})
		} else {
			rb[owner].l2h.add(rec[int32]{lidx, hd})
		}
	default:
		owner := layout.Owner(src)
		rb[owner].l2l.add(rec[int64]{layout.LocalIdx(src), dst})
	}
}

// assembleRank builds rank r's CSRs from its records, read in place from
// parts in order. Each component is one stable counting pass, so every
// group keeps its records in distribution order; EHPull is the transpose
// of the finished EHPush. k is the hub count.
func assembleRank(r int, layout Layout, k int, parts []rankBuf, sortNanos *atomic.Int64) *RankGraph {
	st := time.Now()
	var eh, e2l, l2e, l2h [][]rec[int32]
	var h2l [][]rec[RemoteL]
	var l2l [][]rec[int64]
	for _, b := range parts {
		eh, e2l, l2e, l2h = b.eh.segs(eh), b.e2l.segs(e2l), b.l2e.segs(l2e), b.l2h.segs(l2h)
		h2l, l2l = b.h2l.segs(h2l), b.l2l.segs(l2l)
	}
	g := &RankGraph{Rank: r, LocalN: layout.LocalCount(r)}
	g.EHPush.IDs, g.EHPush.Ptr, g.EHPush.Adj = groupSparse(eh, k)
	g.EHPull = transpose(&g.EHPush, k)
	g.EToL.IDs, g.EToL.Ptr, g.EToL.Adj = groupSparse(e2l, k)
	g.HToL.IDs, g.HToL.Ptr, g.HToL.Adj = groupSparse(h2l, k)
	g.LToE.Ptr, g.LToE.Adj = groupDense(l2e, g.LocalN)
	g.LToH.Ptr, g.LToH.Adj = groupDense(l2h, g.LocalN)
	g.L2L.Ptr, g.L2L.Adj = groupDense(l2l, g.LocalN)
	g.CompEdges = [NumComponents]int64{
		CompEH2EH: g.EHPush.NumEdges(), CompE2L: g.EToL.NumEdges(), CompH2L: g.HToL.NumEdges(),
		CompL2E: g.LToE.NumEdges(), CompL2H: g.LToH.NumEdges(), CompL2L: g.L2L.NumEdges(),
	}
	sortNanos.Add(time.Since(st).Nanoseconds())
	return g
}

// groupDense lays out records keyed in [0, n) as a CSR with a row for
// every key: count per key over every segment in order, prefix-sum, then
// scatter the payloads in the same order, which keeps each row stable.
func groupDense[V any](segs [][]rec[V], n int) ([]int64, []V) {
	ptr := make([]int64, n+1)
	for _, s := range segs {
		for _, x := range s {
			ptr[x.key+1]++
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]V, ptr[n])
	cur := append([]int64(nil), ptr[:n]...)
	for _, s := range segs {
		for _, x := range s {
			adj[cur[x.key]] = x.val
			cur[x.key]++
		}
	}
	return ptr, adj
}

// groupSparse is groupDense over hub IDs [0, k) keeping only the hubs
// that have records. An empty component has nil IDs and Adj, as in
// referenceBuild's output.
func groupSparse[V any](segs [][]rec[V], k int) ([]int32, []int64, []V) {
	dense, adj := groupDense(segs, k)
	ids, ptr := compact(dense)
	if ids == nil {
		return nil, ptr, nil
	}
	return ids, ptr, adj
}

// transpose groups the push CSR's edges by destination. Walking the push
// side in source order leaves every destination's sources ascending, ties
// in distribution order.
func transpose(push *SparseCSR, k int) SparseCSR {
	dense := make([]int64, k+1)
	for _, d := range push.Adj {
		dense[d+1]++
	}
	for h := 0; h < k; h++ {
		dense[h+1] += dense[h]
	}
	var pull SparseCSR
	if pull.IDs, pull.Ptr = compact(dense); pull.IDs == nil {
		return pull
	}
	pull.Adj = make([]int32, len(push.Adj))
	cur := dense[:k]
	for i, src := range push.IDs {
		for _, d := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			pull.Adj[cur[d]] = src
			cur[d]++
		}
	}
	return pull
}

// compact returns the non-empty rows of a dense CSR offset array and their
// offsets.
func compact(dense []int64) ([]int32, []int64) {
	var ids []int32
	var ptr []int64
	for h := 0; h+1 < len(dense); h++ {
		if dense[h+1] > dense[h] {
			ids = append(ids, int32(h))
			ptr = append(ptr, dense[h])
		}
	}
	return ids, append(ptr, dense[len(dense)-1])
}

// TotalEdges sums stored directed edges over all ranks and components.
func (p *Partitioned) TotalEdges() int64 {
	var t int64
	for _, rg := range p.Ranks {
		for _, c := range rg.CompEdges {
			t += c
		}
	}
	return t
}

// BalanceStats summarizes per-rank edge counts for one component:
// min, max, mean — the Figure 13 distribution.
type BalanceStats struct {
	Component Component
	Min, Max  int64
	Mean      float64
	PerRank   []int64
}

// Balance computes balance statistics for every component.
func (p *Partitioned) Balance() []BalanceStats {
	out := make([]BalanceStats, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		st := BalanceStats{Component: c, Min: 1<<63 - 1}
		var sum int64
		for _, rg := range p.Ranks {
			v := rg.CompEdges[c]
			st.PerRank = append(st.PerRank, v)
			sum += v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
		st.Mean = float64(sum) / float64(len(p.Ranks))
		out[c] = st
	}
	return out
}
