package partition

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/rmat"
)

// BuildDistributed constructs the same partitioning as Build, but with the
// paper's distributed preprocessing discipline (Section 5, "in-place global
// sort"): each rank starts from only its own shard of the edge list, degrees
// are combined with one vector sum-reduce, placement records route straight
// to their destination rank with one alltoallv per component, and each rank
// assembles only what it will own, with Build's counting passes. No rank
// ever materializes the whole edge list — the property that lets the real
// system preprocess a graph occupying nearly all of main memory. When shard
// cuts the edge list contiguously in rank order, the result equals Build's
// byte for byte.
//
// All ranks of the world must call it collectively, each with its shard;
// every rank returns the full Partitioned handle (rank graphs are shared
// read-only structures, as with Build).
func BuildDistributed(world *comm.World, n int64, shard func(rank int) []rmat.Edge, th Thresholds) (*Partitioned, error) {
	if err := th.Validate(); err != nil {
		return nil, err
	}
	mesh := world.Mesh()
	layout := NewLayout(n, mesh)
	p := mesh.Size()
	ranks := make([]*RankGraph, p)
	degreesOut := make([][]int64, p)
	errs := make([]error, p)
	world.Run(func(r *comm.Rank) {
		edges := shard(r.ID)
		// Phase 1: global degrees via one vector sum-reduce of the local
		// histograms.
		degrees := make([]int64, n)
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			degrees[e.U]++
			degrees[e.V]++
		}
		comm.Must0(comm.AllreduceSumInt64Vec(r.World, degrees))
		degreesOut[r.ID] = degrees
		// Phase 2: every rank computes the identical hub directory from the
		// identical degree vector.
		hubs, err := BuildHubDir(degrees, th)
		if err != nil {
			errs[r.ID] = err
			// Still participate in the collectives below with empty data so
			// the world does not deadlock.
			hubs = &HubDir{}
		}
		// Phase 3: route placement records from the local shard to their
		// destination ranks.
		rb := make([]rankBuf, p)
		if errs[r.ID] == nil {
			distribute(edges, layout, hubs, rb)
		}
		got := exchangeRecords(r, rb)
		// Phase 4: assemble this rank's CSRs from its received records.
		if errs[r.ID] == nil {
			ranks[r.ID] = assembleRank(r.ID, layout, hubs.K(), got, new(atomic.Int64))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	part := &Partitioned{Layout: layout, Hubs: nil, Ranks: ranks, Degrees: degreesOut[0]}
	// Rebuild the (identical) hub directory once for the shared handle.
	hubs, err := BuildHubDir(part.Degrees, th)
	if err != nil {
		return nil, fmt.Errorf("partition: hub directory rebuild: %w", err)
	}
	part.Hubs = hubs
	return part, nil
}

// exchangeRecords alltoallvs each component's placement records and returns
// what every rank sent this one, indexed by sender, for the assembler to
// read in place in sender order.
func exchangeRecords(r *comm.Rank, rb []rankBuf) []rankBuf {
	got := make([]rankBuf, len(rb))
	exchange(r, rb, got, func(b *rankBuf) *recList[int32] { return &b.eh })
	exchange(r, rb, got, func(b *rankBuf) *recList[int32] { return &b.e2l })
	exchange(r, rb, got, func(b *rankBuf) *recList[RemoteL] { return &b.h2l })
	exchange(r, rb, got, func(b *rankBuf) *recList[int32] { return &b.l2e })
	exchange(r, rb, got, func(b *rankBuf) *recList[int32] { return &b.l2h })
	exchange(r, rb, got, func(b *rankBuf) *recList[int64] { return &b.l2l })
	return got
}

// exchange alltoallvs one component, selected by comp, from send to recv.
func exchange[V any](r *comm.Rank, send, recv []rankBuf, comp func(*rankBuf) *recList[V]) {
	out := make([][]rec[V], len(send))
	for q := range send {
		for _, b := range comp(&send[q]).segs(nil) {
			out[q] = append(out[q], b...)
		}
	}
	for q, part := range comm.Must(comm.Alltoallv(r.World, out)) {
		comp(&recv[q]).tail = part
	}
}
