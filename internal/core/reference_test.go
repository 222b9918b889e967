package core

import "repro/internal/rmat"

// Sequential references for the analytics workloads: single-threaded,
// partition-free definitions of what RunWCC, RunKCore and RunPageRank compute.
// Self loops are dropped and duplicate edges counted with multiplicity, as in
// the partitioner's degree table.

// unionFind labels every vertex with the smallest vertex ID in its connected
// component (it unions toward the smaller root), which is what min-label
// propagation converges to.
func unionFind(n int64, edges []rmat.Edge) []int64 {
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		a, b := find(e.U), find(e.V)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	label := make([]int64, n)
	for v := int64(0); v < n; v++ {
		label[v] = find(v)
	}
	return label
}

// componentCount counts the distinct labels among vertices with an edge other
// than a self loop.
func componentCount(n int64, edges []rmat.Edge, label []int64) int64 {
	seen := map[int64]bool{}
	for _, e := range edges {
		if e.U != e.V {
			seen[label[e.U]] = true
		}
	}
	return int64(len(seen))
}

// sequentialWCCRounds counts synchronous (Jacobi) min-label rounds — every
// vertex takes the minimum of its own and its neighbors' labels of the
// previous round — up to and including the first round that changes nothing.
func sequentialWCCRounds(n int64, edges []rmat.Edge) int {
	label, next := make([]int64, n), make([]int64, n)
	for v := range label {
		label[v] = int64(v)
	}
	for rounds := 1; ; rounds++ {
		copy(next, label)
		for _, e := range edges {
			next[e.U] = min(next[e.U], label[e.V])
			next[e.V] = min(next[e.V], label[e.U])
		}
		changed := false
		for v := range label {
			changed = changed || next[v] != label[v]
		}
		if !changed {
			return rounds
		}
		label, next = next, label
	}
}

// sequentialKCore peels one vertex at a time: remove any vertex whose
// remaining degree is below k until none is left to remove.
func sequentialKCore(n int64, edges []rmat.Edge, k int64) []bool {
	deg := make([]int64, n)
	adj := make([][]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	removed := make([]bool, n)
	for again := true; again; {
		again = false
		for v := int64(0); v < n; v++ {
			if !removed[v] && deg[v] < k {
				removed[v] = true
				again = true
				for _, u := range adj[v] {
					deg[u]--
				}
			}
		}
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = !removed[v]
	}
	return in
}

// sequentialPageRank is the dense power iteration with uniform dangling
// redistribution, run for exactly iters rounds.
func sequentialPageRank(n int64, edges []rmat.Edge, damping float64, iters int) []float64 {
	deg := make([]float64, n)
	for _, e := range edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	val, acc := make([]float64, n), make([]float64, n)
	for v := range val {
		val[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := range acc {
			acc[v] = 0
			if deg[v] == 0 {
				dangling += val[v]
			}
		}
		for _, e := range edges {
			if e.U != e.V {
				acc[e.V] += val[e.U] / deg[e.U]
				acc[e.U] += val[e.V] / deg[e.V]
			}
		}
		base, share := (1-damping)/float64(n), dangling/float64(n)
		for v := range val {
			val[v] = base + damping*(acc[v]+share)
		}
	}
	return val
}
