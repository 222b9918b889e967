package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/rmat"
)

// inputs is what a workload's seed generates: the R-MAT edge list the
// program receives, plus the harness's own CSR of it (the oracle) and the
// sampled roots. The program under test never sees the seed.
type inputs struct {
	n          int64
	edges      []rmat.Edge
	csr        *graph.CSR
	roots      []int64
	hub        int64 // the highest-degree vertex
	genSeconds float64
}

// Seed streams: one user seed drives three independent draws.
const (
	rootStream    = 0x9e3779b97f4a7c15
	arrivalStream = 0xc2b2ae3d27d4eb4f
)

// makeInputs generates the graph and samples nroots distinct roots from the
// giant component only. A root in a one- or two-vertex component traverses
// no edges in microseconds, which drives a harmonic-mean TEPS to zero while
// the median stays put; the Graph 500 rule of skipping degree-zero roots is
// not enough at these scales.
func makeInputs(scale int, seed uint64, nroots int) (*inputs, error) {
	in := &inputs{}
	cfg := rmat.Config{Scale: scale, Seed: seed}
	t0 := time.Now()
	in.edges = rmat.Generate(cfg)
	in.genSeconds = time.Since(t0).Seconds()
	in.n = cfg.NumVertices()
	// Duplicates are kept (k-core counts them with multiplicity, as the
	// partitioner's degree table does); sorted adjacency gives hasEdge a
	// binary search.
	in.csr = graph.FromEdges(in.n, in.edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, SortAdj: true})

	for v := int64(1); v < in.n; v++ {
		if in.csr.Degree(v) > in.csr.Degree(in.hub) {
			in.hub = v
		}
	}
	var giant []int64
	for v, p := range in.csr.SequentialBFS(in.hub) {
		if p >= 0 {
			giant = append(giant, int64(v))
		}
	}
	if len(giant) < nroots {
		return nil, fmt.Errorf("giant component has %d vertices, need %d roots", len(giant), nroots)
	}
	rng := rand.New(rand.NewSource(int64(seed ^ rootStream)))
	for i := 0; i < nroots; i++ {
		j := i + rng.Intn(len(giant)-i)
		giant[i], giant[j] = giant[j], giant[i]
	}
	in.roots = append([]int64(nil), giant[:nroots]...)
	return in, nil
}

// hasEdge reports whether v is in u's (sorted) adjacency.
func (in *inputs) hasEdge(u, v int64) bool {
	adj := in.csr.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}
