package perfmodel

// Batched multi-source admission control: each in-flight query in a batch
// adds one bit-plane of traversal state per rank (four hub bitmaps, three
// owner-local bitmaps, a delegate parent array and an owned-L parent array),
// and — when the engine runs with step-granular retry enabled — up to
// numSteps snapshots of the bitmap planes on top. The daemon sizes its
// batch window from this model against a per-rank memory budget, the same
// way AnalyzeCapacity sizes the machine fit: refuse work that cannot fit
// rather than discover the overcommit mid-sweep.

const (
	// batchHubPlanes and batchLPlanes mirror the engine's plane stacks
	// (hubFrontier/hubVisited/hubNew/hubIter and lFrontier/lVisited/lNew).
	batchHubPlanes = 4
	batchLPlanes   = 3
	// batchSnapshotCopies is the engine's per-step snapshot count: with
	// fault tolerance on, every bitmap backing is captured once per step
	// boundary (4 steps) for retry rollback.
	batchSnapshotCopies = 4
)

// BatchQueryBytes models the per-rank bytes one in-flight batched query
// adds: bitmap planes over k delegated hubs and perRank owned vertices,
// plus the two parent arrays. With faulty set, the step-snapshot copies of
// the bitmap state are charged too (parent arrays are monotone and not
// snapshotted).
//
// The model counts per-rank state only. A full-tree query also allocates
// its assembled N-entry parent array (N × 8 bytes) in the serving process,
// which is not counted here; a target query assembles no such array.
func BatchQueryBytes(k, perRank int64, faulty bool) int64 {
	words := func(bits int64) int64 { return (bits + 63) / 64 * 8 }
	bitmaps := batchHubPlanes*words(k) + batchLPlanes*words(perRank)
	parents := 8 * (k + perRank)
	total := bitmaps + parents
	if faulty {
		total += batchSnapshotCopies * bitmaps
	}
	return total
}

// MaxBatchQueries returns how many concurrent queries fit a per-rank memory
// budget, at least 1 when any single query fits and 0 when none does.
func MaxBatchQueries(budgetBytes, k, perRank int64, faulty bool) int {
	per := BatchQueryBytes(k, perRank, faulty)
	if per <= 0 || budgetBytes < per {
		return 0
	}
	return int(budgetBytes / per)
}
