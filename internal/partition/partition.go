// Package partition implements the paper's primary contribution: 3-level
// degree-aware 1.5D graph partitioning (Section 4.1). Vertices are classified
// by degree into Extremely heavy (E, delegated on all ranks), Heavy (H,
// delegated on mesh rows and columns), and Light (L, owned 1D-style), and the
// undirected edge set splits into six directed components — EH2EH (2D
// partitioned over the mesh), E2L, L2E, H2L, L2H, and L2L — each stored where
// its traversal kernel needs it.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/rmat"
	"repro/internal/topology"
)

// Class is a vertex degree class.
type Class uint8

// Degree classes, ordered by increasing degree level.
const (
	ClassL Class = iota // light: no delegation
	ClassH              // heavy: delegated on rows and columns
	ClassE              // extremely heavy: delegated everywhere
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassE:
		return "E"
	case ClassH:
		return "H"
	default:
		return "L"
	}
}

// Thresholds are the two degree cut-offs: degree ≥ E ⇒ class E;
// E > degree ≥ H ⇒ class H; otherwise L. The paper tunes these per scale
// (Section 6.2.1); the engine defaults are exposed through the public API.
type Thresholds struct {
	E int64
	H int64
}

// Validate checks E ≥ H > 0.
func (t Thresholds) Validate() error {
	if t.H <= 0 || t.E < t.H {
		return fmt.Errorf("partition: thresholds E=%d H=%d need E ≥ H > 0", t.E, t.H)
	}
	return nil
}

// ClassOf classifies a degree.
func (t Thresholds) ClassOf(deg int64) Class {
	switch {
	case deg >= t.E:
		return ClassE
	case deg >= t.H:
		return ClassH
	default:
		return ClassL
	}
}

// Layout is the block distribution of original vertex IDs over ranks:
// rank i owns the contiguous interval [i*PerRank, min((i+1)*PerRank, N)).
type Layout struct {
	N       int64
	P       int
	Mesh    topology.Mesh
	PerRank int64
}

// NewLayout builds the vertex ownership layout for n vertices on the mesh.
// PerRank is rounded up to a multiple of 64 so that each rank's local bitmap
// occupies whole 64-bit words and rank bitmaps concatenate word-aligned into
// a global frontier bitmap (the bottom-up kernels exchange raw words).
func NewLayout(n int64, mesh topology.Mesh) Layout {
	p := mesh.Size()
	per := (n + int64(p) - 1) / int64(p)
	per = (per + 63) &^ 63
	return Layout{N: n, P: p, Mesh: mesh, PerRank: per}
}

// Owner returns the owning rank of vertex v.
func (l Layout) Owner(v int64) int { return int(v / l.PerRank) }

// LocalIdx returns v's index within its owner's block.
func (l Layout) LocalIdx(v int64) int32 { return int32(v % l.PerRank) }

// GlobalOf returns the original vertex for a (rank, local index) pair.
func (l Layout) GlobalOf(rank int, idx int32) int64 {
	return int64(rank)*l.PerRank + int64(idx)
}

// LocalCount returns the number of vertices rank owns.
func (l Layout) LocalCount(rank int) int {
	lo := int64(rank) * l.PerRank
	if lo >= l.N {
		return 0
	}
	hi := lo + l.PerRank
	if hi > l.N {
		hi = l.N
	}
	return int(hi - lo)
}

// HubDir is the replicated hub directory: the E and H vertices with their new
// dense IDs. E hubs occupy [0, NumE), H hubs [NumE, NumE+NumH); within each
// class hubs are ordered by decreasing degree (ties by original ID), matching
// the paper's per-degree re-identification. The directory is small by
// construction — that is the point of the three-level scheme — so every rank
// can hold it whole.
type HubDir struct {
	Thresholds Thresholds
	NumE, NumH int
	Orig       []int64 // hub id -> original vertex
	Deg        []int64 // hub id -> degree
	// index maps every original vertex to its hub id, -1 for L (N×4 bytes,
	// beside the N×8 degree vector Partitioned already keeps); isHub is the
	// same classification as an N-bit set, small enough to stay in L2.
	index []int32
	isHub []uint64
}

// BuildHubDir classifies all vertices by the thresholds; degrees[v] is the
// (undirected) degree of original vertex v.
func BuildHubDir(degrees []int64, th Thresholds) (*HubDir, error) {
	if err := th.Validate(); err != nil {
		return nil, err
	}
	d := &HubDir{Thresholds: th, index: make([]int32, len(degrees))}
	type cand struct {
		v   int64
		deg int64
	}
	var es, hs []cand
	for v, deg := range degrees {
		d.index[v] = -1
		switch th.ClassOf(deg) {
		case ClassE:
			es = append(es, cand{int64(v), deg})
		case ClassH:
			hs = append(hs, cand{int64(v), deg})
		}
	}
	byDeg := func(s []cand) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].deg != s[j].deg {
				return s[i].deg > s[j].deg
			}
			return s[i].v < s[j].v
		}
	}
	sort.Slice(es, byDeg(es))
	sort.Slice(hs, byDeg(hs))
	d.NumE, d.NumH = len(es), len(hs)
	d.Orig = make([]int64, 0, d.NumE+d.NumH)
	d.Deg = make([]int64, 0, d.NumE+d.NumH)
	d.isHub = make([]uint64, (len(degrees)+63)/64)
	for _, c := range append(es, hs...) {
		d.isHub[c.v>>6] |= 1 << (c.v & 63)
		d.index[c.v] = int32(len(d.Orig))
		d.Orig = append(d.Orig, c.v)
		d.Deg = append(d.Deg, c.deg)
	}
	return d, nil
}

// K returns the total hub count.
func (d *HubDir) K() int { return d.NumE + d.NumH }

// HubOf returns the hub ID of original vertex v, if v is a hub. Ids outside
// [0, N) are not hubs.
func (d *HubDir) HubOf(v int64) (int32, bool) {
	if uint64(v) < uint64(len(d.index)) {
		if h := d.index[v]; h >= 0 {
			return h, true
		}
	}
	return 0, false
}

// hubID is HubOf for v in [0, N), with -1 for L. The bitmap answers the L
// lookups, so only hub endpoints touch the N-entry index.
func (d *HubDir) hubID(v int64) int32 {
	if d.isHub[v>>6]&(1<<(v&63)) == 0 {
		return -1
	}
	return d.index[v]
}

// IsE reports whether hub id h is extremely heavy.
func (d *HubDir) IsE(h int32) bool { return int(h) < d.NumE }

// RowBlockOf returns the mesh row owning hub h's destination delegation in
// the 2D EH2EH layout. Assignment is cyclic so the heavy head of the
// degree-sorted hub list spreads across rows.
func (d *HubDir) RowBlockOf(h int32, mesh topology.Mesh) int {
	return int(h) % mesh.Rows
}

// ColBlockOf returns the mesh column owning hub h's source delegation.
// The divide by Rows decorrelates it from RowBlockOf on square meshes.
func (d *HubDir) ColBlockOf(h int32, mesh topology.Mesh) int {
	return (int(h) / mesh.Rows) % mesh.Cols
}

// Component identifies one of the six edge components (paper Figure 4).
type Component int

// The six components, in the sub-iteration execution order of Section 4.2:
// higher-degree sources and destinations run earlier.
const (
	CompEH2EH Component = iota
	CompE2L
	CompH2L
	CompL2E
	CompL2H
	CompL2L
	NumComponents
)

// String returns the paper's component name.
func (c Component) String() string {
	switch c {
	case CompEH2EH:
		return "EH2EH"
	case CompE2L:
		return "E2L"
	case CompH2L:
		return "H2L"
	case CompL2E:
		return "L2E"
	case CompL2H:
		return "L2H"
	case CompL2L:
		return "L2L"
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Edge re-exports the generator's edge type for packages that consume
// partitioned graphs without importing the generator.
type Edge = rmat.Edge
