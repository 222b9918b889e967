// Package topology models the New Sunway interconnect the paper runs on
// (Section 3.2): nodes grouped into 256-node supernodes with full bandwidth
// inside a supernode and an oversubscribed fat tree between supernodes. The
// model prices communication volumes measured by the comm layer, which is how
// the perfmodel package projects the paper's scaling figures without the
// machine.
package topology

import "fmt"

// Machine describes the modeled system. All bandwidths are bytes/second per
// node unless stated otherwise.
type Machine struct {
	Nodes            int
	SupernodeSize    int     // nodes per supernode (paper: 256)
	NICBandwidth     float64 // injection bandwidth per node (paper: 200 Gb/s = 25 GB/s)
	Oversubscription float64 // fat-tree taper for inter-supernode traffic (paper: 8)
	LinkLatency      float64 // per-message latency, seconds
	MemBandwidth     float64 // per-node memory bandwidth (paper: 249 GB/s)
	MemPerNode       int64   // bytes of main memory per node (paper: 96 GiB)
	CoresPerNode     int     // paper: 390 (6 MPE + 384 CPE)
}

// NewSunway returns the paper's published machine constants.
func NewSunway(nodes int) Machine {
	return Machine{
		Nodes:            nodes,
		SupernodeSize:    256,
		NICBandwidth:     25e9, // 200 Gbps
		Oversubscription: 8,
		LinkLatency:      1.5e-6,
		MemBandwidth:     249e9,
		MemPerNode:       96 << 30,
		CoresPerNode:     390,
	}
}

// Supernode returns the supernode index of a node.
func (m Machine) Supernode(node int) int {
	if m.SupernodeSize <= 0 {
		return 0
	}
	return node / m.SupernodeSize
}

// Supernodes returns the number of (possibly partial) supernodes.
func (m Machine) Supernodes() int {
	if m.SupernodeSize <= 0 {
		return 1
	}
	return (m.Nodes + m.SupernodeSize - 1) / m.SupernodeSize
}

// SameSupernode reports whether two nodes share a supernode.
func (m Machine) SameSupernode(a, b int) bool { return m.Supernode(a) == m.Supernode(b) }

// CrossBandwidth is the effective per-node bandwidth for traffic leaving the
// supernode: NIC bandwidth divided by the oversubscription factor.
func (m Machine) CrossBandwidth() float64 {
	if m.Oversubscription <= 0 {
		return m.NICBandwidth
	}
	return m.NICBandwidth / m.Oversubscription
}

// Traffic describes one communication phase for costing: per-node byte
// volumes split by whether they cross supernode boundaries, plus the number
// of messages on the critical path (for latency).
type Traffic struct {
	IntraBytesPerNode float64 // bytes each node sends within its supernode
	InterBytesPerNode float64 // bytes each node sends across supernodes
	Messages          int     // sequential message count on the critical path
}

// Time returns the modeled wall-clock seconds for the phase: the max of
// intra- and inter-supernode transfer times (they overlap on different links)
// plus latency for the critical-path messages.
func (m Machine) Time(t Traffic) float64 {
	intra := 0.0
	if m.NICBandwidth > 0 {
		intra = t.IntraBytesPerNode / m.NICBandwidth
	}
	inter := 0.0
	if cb := m.CrossBandwidth(); cb > 0 {
		inter = t.InterBytesPerNode / cb
	}
	link := intra
	if inter > link {
		link = inter
	}
	return link + float64(t.Messages)*m.LinkLatency
}

// Mesh is the R×C process grid of the 1.5D partitioning. Rows map to
// supernodes as in the paper (Section 4.1), so row-internal collectives stay
// inside a supernode whenever R divides the machine into supernode-sized
// rows.
type Mesh struct {
	Rows, Cols int
}

// Size returns the number of ranks.
func (m Mesh) Size() int { return m.Rows * m.Cols }

// RowOf returns the mesh row of a rank. Ranks are laid out row-major so that
// one row = C consecutive ranks = (ideally) one supernode.
func (m Mesh) RowOf(rank int) int { return rank / m.Cols }

// ColOf returns the mesh column of a rank.
func (m Mesh) ColOf(rank int) int { return rank % m.Cols }

// RankAt returns the rank at (row, col).
func (m Mesh) RankAt(row, col int) int { return row*m.Cols + col }

// Validate checks the mesh covers exactly n ranks.
func (m Mesh) Validate(n int) error {
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("topology: mesh %dx%d not positive", m.Rows, m.Cols)
	}
	if m.Size() != n {
		return fmt.Errorf("topology: mesh %dx%d covers %d ranks, want %d", m.Rows, m.Cols, m.Size(), n)
	}
	return nil
}

// SquarestMesh factors n into the most square R×C mesh with R ≤ C.
func SquarestMesh(n int) Mesh {
	best := Mesh{Rows: 1, Cols: n}
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = Mesh{Rows: r, Cols: n / r}
		}
	}
	return best
}
