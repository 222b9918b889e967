package perfmodel

import "repro/internal/topology"

// Batched multi-source admission control: each in-flight query in a batch
// adds one bit-plane of traversal state per rank (four hub bitmaps, three
// owner-local bitmaps, a delegate parent array, an owned-L parent array and
// three per-query counters), the pull-frontier gathers a plane builds once it
// pulls L2H or L2L, and — when the engine runs with step-granular retry
// enabled — up to numSteps snapshots of the bitmap planes on top. The daemon
// sizes its batch window from this model against a per-rank memory budget,
// the same way AnalyzeCapacity sizes the machine fit: refuse work that cannot
// fit rather than discover the overcommit mid-sweep.

const (
	// batchHubPlanes and batchLPlanes mirror the engine's plane stacks
	// (hubFrontier/hubVisited/hubNew/hubIter and lFrontier/lVisited/lNew).
	batchHubPlanes = 4
	batchLPlanes   = 3
	// batchCounters is the per-query counter tail the engine keeps beside
	// the delegate parents (activeL, visitL, doneIter).
	batchCounters = 3
	// batchSnapshotCopies is the engine's per-step snapshot count: with
	// fault tolerance on, every bitmap backing is captured once per step
	// boundary (4 steps) for retry rollback.
	batchSnapshotCopies = 4
)

// BatchQueryBytes models the per-rank bytes one in-flight batched query
// adds on a mesh: bitmap planes over k delegated hubs and perRank owned
// vertices, the two parent arrays and the counters, plus what a pulling
// plane gathers — its row-wide L frontier (perRank × Cols bits), its
// world-wide one (perRank × P bits), and its share of the rank's gather
// scratch (its own frontier sent, every member's received). With faulty set,
// the step-snapshot copies of the bitmap state are charged too (parent
// arrays are monotone and not snapshotted).
//
// The model counts per-rank state only. A full-tree query also allocates
// its assembled N-entry parent array (N × 8 bytes) in the serving process,
// which is not counted here; a target query assembles no such array.
func BatchQueryBytes(k, perRank int64, mesh topology.Mesh, faulty bool) int64 {
	words := func(bits int64) int64 { return (bits + 63) / 64 * 8 }
	bitmaps := batchHubPlanes*words(k) + batchLPlanes*words(perRank)
	parents := 8 * (k + perRank + batchCounters)
	cols, p := int64(mesh.Cols), int64(mesh.Size())
	gathers := words(perRank*cols) + words(perRank*p) + words(perRank) + p*words(perRank)
	total := bitmaps + parents + gathers
	if faulty {
		total += batchSnapshotCopies * bitmaps
	}
	return total
}

// MaxBatchQueries returns how many concurrent queries fit a per-rank memory
// budget, at least 1 when any single query fits and 0 when none does.
func MaxBatchQueries(budgetBytes, k, perRank int64, mesh topology.Mesh, faulty bool) int {
	per := BatchQueryBytes(k, perRank, mesh, faulty)
	if per <= 0 || budgetBytes < per {
		return 0
	}
	return int(budgetBytes / per)
}
