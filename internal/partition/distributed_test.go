package partition

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/rmat"
	"repro/internal/topology"
)

func buildBoth(t *testing.T, scale int, mesh topology.Mesh, th Thresholds) (*Partitioned, *Partitioned) {
	t.Helper()
	cfg := rmat.Config{Scale: scale, Seed: 61}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	ref, err := Build(n, edges, mesh, th, 0)
	if err != nil {
		t.Fatal(err)
	}
	world, err := comm.NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	// Shard the edge list contiguously across ranks.
	p := mesh.Size()
	chunk := (len(edges) + p - 1) / p
	shard := func(rank int) []rmat.Edge {
		lo := rank * chunk
		if lo >= len(edges) {
			return nil
		}
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		return edges[lo:hi]
	}
	dist, err := BuildDistributed(world, n, shard, th)
	if err != nil {
		t.Fatal(err)
	}
	return ref, dist
}

func TestBuildDistributedMatchesBuild(t *testing.T) {
	for _, c := range []struct {
		scale int
		mesh  topology.Mesh
	}{{10, topology.Mesh{Rows: 2, Cols: 2}}, {11, topology.Mesh{Rows: 2, Cols: 3}}} {
		ref, dist := buildBoth(t, c.scale, c.mesh, Thresholds{E: 256, H: 32})
		samePartition(t, fmt.Sprintf("scale %d mesh %dx%d", c.scale, c.mesh.Rows, c.mesh.Cols), dist, ref)
	}
}

func TestBuildDistributedUnevenShards(t *testing.T) {
	// All edges on one rank's shard: routing must still place everything.
	cfg := rmat.Config{Scale: 8, Seed: 62}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	world, err := comm.NewWorld(4, mesh, topology.NewSunway(4))
	if err != nil {
		t.Fatal(err)
	}
	shard := func(rank int) []rmat.Edge {
		if rank == 3 {
			return edges
		}
		return nil
	}
	dist, err := BuildDistributed(world, n, shard, Thresholds{E: 128, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(n, edges, mesh, Thresholds{E: 128, H: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist.TotalEdges() != ref.TotalEdges() {
		t.Fatalf("distributed build stored %d edges, reference %d", dist.TotalEdges(), ref.TotalEdges())
	}
}

func TestBuildDistributedRejectsBadThresholds(t *testing.T) {
	mesh := topology.Mesh{Rows: 1, Cols: 2}
	world, err := comm.NewWorld(2, mesh, topology.NewSunway(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDistributed(world, 16, func(int) []rmat.Edge { return nil }, Thresholds{E: 1, H: 2}); err == nil {
		t.Fatal("invalid thresholds accepted")
	}
}
