// Package graph provides the in-memory graph representations the engine
// works with: raw edge lists and Compressed Sparse Row (CSR) adjacency, with
// parallel construction. Vertex IDs are int64 because the paper's target
// graphs (2^44 vertices) exceed 32 bits; local (per-partition) indices are
// int32 where the partitioning guarantees they fit.
package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/rmat"
)

// CSR is a compressed sparse row adjacency structure over n vertices.
// Neighbors of u are Adj[Ptr[u]:Ptr[u+1]].
type CSR struct {
	N   int64
	Ptr []int64
	Adj []int64
}

// Degree returns the out-degree of u.
func (g *CSR) Degree(u int64) int64 { return g.Ptr[u+1] - g.Ptr[u] }

// Neighbors returns the adjacency slice of u.
func (g *CSR) Neighbors(u int64) []int64 { return g.Adj[g.Ptr[u]:g.Ptr[u+1]] }

// NumEdges returns the number of stored directed edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) }

// Validate checks structural invariants, returning a descriptive error.
func (g *CSR) Validate() error {
	if int64(len(g.Ptr)) != g.N+1 {
		return fmt.Errorf("graph: ptr length %d, want %d", len(g.Ptr), g.N+1)
	}
	if g.Ptr[0] != 0 {
		return fmt.Errorf("graph: ptr[0] = %d, want 0", g.Ptr[0])
	}
	for i := int64(0); i < g.N; i++ {
		if g.Ptr[i] > g.Ptr[i+1] {
			return fmt.Errorf("graph: ptr not monotone at %d: %d > %d", i, g.Ptr[i], g.Ptr[i+1])
		}
	}
	if g.Ptr[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: ptr[n] = %d, want %d", g.Ptr[g.N], len(g.Adj))
	}
	for _, v := range g.Adj {
		if v < 0 || v >= g.N {
			return fmt.Errorf("graph: neighbor %d out of [0,%d)", v, g.N)
		}
	}
	return nil
}

// BuildOptions tunes CSR construction.
type BuildOptions struct {
	// Symmetrize inserts both directions of every input edge.
	Symmetrize bool
	// DropSelfLoops removes u-u edges (Graph 500 BFS treats them as
	// irrelevant; the generator may emit them).
	DropSelfLoops bool
	// Dedup removes parallel edges after construction.
	Dedup bool
	// SortAdj sorts each adjacency list ascending (implied by Dedup).
	SortAdj bool
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
}

// FromEdges builds a CSR over n vertices from the edge list.
func FromEdges(n int64, edges []rmat.Edge, opt BuildOptions) *CSR {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Pass 1: count out-degrees (sharded counters to avoid atomics).
	counts := parallelCounts(n, edges, opt, workers)
	ptr := make([]int64, n+1)
	var sum int64
	for i := int64(0); i < n; i++ {
		ptr[i] = sum
		sum += counts[i]
	}
	ptr[n] = sum
	adj := make([]int64, sum)
	// Pass 2: scatter. Reuse counts as per-vertex write cursors.
	cursor := counts
	copy(cursor, ptr[:n])
	// Sequential scatter (still fast; contention-free). Plain CSR
	// construction is not on the measured path.
	for _, e := range edges {
		u, v := e.U, e.V
		if opt.DropSelfLoops && u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		if opt.Symmetrize {
			adj[cursor[v]] = u
			cursor[v]++
		}
	}
	g := &CSR{N: n, Ptr: ptr, Adj: adj}
	if opt.Dedup || opt.SortAdj {
		g.sortAdjacency(workers)
	}
	if opt.Dedup {
		g = g.dedup()
	}
	return g
}

func parallelCounts(n int64, edges []rmat.Edge, opt BuildOptions, workers int) []int64 {
	shards := make([][]int64, workers)
	var wg sync.WaitGroup
	chunk := (len(edges) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(edges) {
			break
		}
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := make([]int64, n)
			for _, e := range edges[lo:hi] {
				if opt.DropSelfLoops && e.U == e.V {
					continue
				}
				local[e.U]++
				if opt.Symmetrize {
					local[e.V]++
				}
			}
			shards[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	counts := make([]int64, n)
	for _, local := range shards {
		if local == nil {
			continue
		}
		for i := range counts {
			counts[i] += local[i]
		}
	}
	return counts
}

func (g *CSR) sortAdjacency(workers int) {
	var wg sync.WaitGroup
	chunk := (g.N + int64(workers) - 1) / int64(workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * chunk
		if lo >= g.N {
			break
		}
		hi := lo + chunk
		if hi > g.N {
			hi = g.N
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				nb := g.Adj[g.Ptr[u]:g.Ptr[u+1]]
				sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
			}
		}(lo, hi)
	}
	wg.Wait()
}

// dedup removes duplicate neighbors; adjacency must already be sorted.
func (g *CSR) dedup() *CSR {
	newPtr := make([]int64, g.N+1)
	newAdj := g.Adj[:0] // rewrite in place; reads stay ahead of writes
	var w int64
	for u := int64(0); u < g.N; u++ {
		newPtr[u] = w
		var last int64 = -1
		for _, v := range g.Adj[g.Ptr[u]:g.Ptr[u+1]] {
			if v != last {
				newAdj = append(newAdj[:w], v)
				w++
				last = v
			}
		}
	}
	newPtr[g.N] = w
	return &CSR{N: g.N, Ptr: newPtr, Adj: g.Adj[:w]}
}

// SequentialBFS runs a textbook BFS from root over the CSR (which must be
// symmetric for undirected semantics) and returns the parent array, with -1
// for unreachable vertices and parent[root] = root. It is the reference
// implementation the distributed engines are validated against.
func (g *CSR) SequentialBFS(root int64) []int64 {
	parent := make([]int64, g.N)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	queue := make([]int64, 0, 1024)
	queue = append(queue, root)
	for len(queue) > 0 {
		next := queue[:0:0]
		for _, u := range queue {
			for _, v := range g.Neighbors(u) {
				if parent[v] == -1 {
					parent[v] = u
					next = append(next, v)
				}
			}
		}
		queue = next
	}
	return parent
}

// Levels converts a parent array into BFS levels (-1 for unreachable).
// It returns an error if the parent pointers do not form a tree rooted at
// root (e.g. contain a cycle).
func Levels(parent []int64, root int64) ([]int64, error) {
	n := int64(len(parent))
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = -1
	}
	if parent[root] != root {
		return nil, fmt.Errorf("graph: parent[root=%d] = %d, want self", root, parent[root])
	}
	levels[root] = 0
	for v := int64(0); v < n; v++ {
		if parent[v] == -1 || levels[v] >= 0 {
			continue
		}
		// Walk up to a resolved ancestor, then unwind.
		path := []int64{}
		u := v
		for levels[u] < 0 {
			path = append(path, u)
			u = parent[u]
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graph: parent chain of %d leaves range at %d", v, u)
			}
			if int64(len(path)) > n {
				return nil, fmt.Errorf("graph: parent cycle involving %d", v)
			}
		}
		base := levels[u]
		for i := len(path) - 1; i >= 0; i-- {
			base++
			levels[path[i]] = base
		}
	}
	return levels, nil
}
