package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Correctness runs outside every timed region. validate.BFS costs ~8 s per
// root at SCALE 20 (its tree-edge check builds a 16M-entry map), so each
// distinct root is checked once against the harness's CSR during warm-up
// and every timed repeat only compares a 64-bit hash of its output.

// checkBFS verifies one parent array: its levels equal the sequential
// reference BFS's, and every (parent[v], v) is an edge of the graph.
func (in *inputs) checkBFS(root int64, parent []int64) error {
	want, err := in.refLevels(root)
	if err != nil {
		return err
	}
	got, err := graph.Levels(parent, root)
	if err != nil {
		return fmt.Errorf("root %d: %w", root, err)
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("root %d: level[%d] = %d, reference %d", root, v, got[v], want[v])
		}
		if p := parent[v]; p >= 0 && int64(v) != root && !in.hasEdge(p, int64(v)) {
			return fmt.Errorf("root %d: tree edge (%d,%d) is not in the graph", root, p, v)
		}
	}
	return nil
}

// refLevels is the oracle: BFS levels of the textbook sequential BFS.
func (in *inputs) refLevels(root int64) ([]int64, error) {
	return graph.Levels(in.csr.SequentialBFS(root), root)
}

// checker validates outputs on as many goroutines as there are CPUs while
// the (untimed) warm-up pass produces the next ones.
type checker struct {
	wg   sync.WaitGroup
	sem  chan struct{}
	mu   sync.Mutex
	errs []error
}

func newChecker() *checker {
	return &checker{sem: make(chan struct{}, runtime.NumCPU())}
}

// check runs fn concurrently; it blocks while every slot is busy, which
// bounds the outputs kept alive for checking.
func (c *checker) check(fn func() error) {
	c.sem <- struct{}{}
	c.wg.Add(1)
	go func() {
		defer func() { <-c.sem; c.wg.Done() }()
		if err := fn(); err != nil {
			c.mu.Lock()
			c.errs = append(c.errs, err)
			c.mu.Unlock()
		}
	}()
}

// wait returns the mismatches found, after every check has finished.
func (c *checker) wait() []error {
	c.wg.Wait()
	return c.errs
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashInt64s(xs []int64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

func hashBools(xs []bool) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		if x {
			h ^= 1
		}
		h *= fnvPrime
	}
	return h
}

func hashFloat64s(xs []float64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * fnvPrime
	}
	return h
}

// wccLabels is the WCC oracle: a union-find over the edge list, labelling
// every vertex with the smallest vertex ID of its component.
func (in *inputs) wccLabels() []int64 {
	root := make([]int64, in.n)
	for v := range root {
		root[v] = int64(v)
	}
	var find func(v int64) int64
	find = func(v int64) int64 {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	for _, e := range in.edges {
		a, b := find(e.U), find(e.V)
		// Linking the larger ID under the smaller keeps each set's
		// representative its minimum, which is the label.
		if a < b {
			root[b] = a
		} else if b < a {
			root[a] = b
		}
	}
	for v := range root {
		root[v] = find(int64(v))
	}
	return root
}

// kcoreMembers is the k-core oracle: sequential peeling over the multigraph
// (duplicate edges count toward degree, self loops do not).
func (in *inputs) kcoreMembers(k int64) []bool {
	deg := make([]int64, in.n)
	member := make([]bool, in.n)
	var queue []int64
	for v := int64(0); v < in.n; v++ {
		deg[v] = in.csr.Degree(v)
		member[v] = deg[v] >= k
		if !member[v] {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range in.csr.Neighbors(v) {
			if member[u] {
				if deg[u]--; deg[u] < k {
					member[u] = false
					queue = append(queue, u)
				}
			}
		}
	}
	return member
}
