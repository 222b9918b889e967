package core

import (
	"repro/internal/partition"
	"repro/internal/stats"
)

// chooseDirections latches the plane's schedule for the iteration: the
// frontier composition, then sub-iteration direction optimization (Section
// 4.2) plus the tail-iteration representation switch in Directions and
// Sparse, which the workload keeps for the iteration
// (retries of a failed iteration keep the same choices, so the collective
// schedule is stable across attempts). Every input is globally
// consistent across ranks — hub bitmaps are replicated, L counts are
// allreduced, and the byte feedback is the previous epilogue's global sum —
// so all ranks compute identical choices and stay in collective lockstep.
//
// Node-local components (EH2EH, E2L, L2E) switch on the source active ratio
// alone: their pull cost is hard to predict from unvisited counts because of
// early exit, exactly as the paper argues. Remote components (H2L, L2H, L2L)
// compare active-source against unvisited-destination ratios, the message-
// count proxies.
//
// Sparse eligibility is the one rule of pickSparse, with hierarchical L2L held
// dense: two-stage forwarding is that mode's point, and its forwarder-ordered
// applies differ from a flat exchange's member order, which would break the
// dense/sparse bit-exactness contract.
func (st *rankState) chooseDirections() {
	var s0 int64
	if st.tr != nil {
		s0 = st.tr.Now()
	}
	it := &st.sched
	*it = IterTrace{
		ActiveE: int64(st.hubFrontier.CountRange(0, int(st.numE))),
		ActiveH: int64(st.hubFrontier.CountRange(int(st.numE), st.k)),
		ActiveL: *st.activeL,
	}
	unvisE := st.numE - int64(st.hubVisited.CountRange(0, int(st.numE)))
	unvisH := int64(st.e.Part.Hubs.NumH) - int64(st.hubVisited.CountRange(int(st.numE), st.k))
	unvisL := st.numL - *st.visitL
	it.Directions = st.pickDirections(*it, unvisE, unvisH, unvisL)
	st.pickSparse(it,
		[partition.NumComponents]int64{partition.CompH2L: it.ActiveH, partition.CompL2H: it.ActiveL, partition.CompL2L: it.ActiveL},
		[partition.NumComponents]bool{partition.CompL2L: st.e.Opt.Hierarchical})
	if st.tr != nil {
		st.emitDecision(s0, it, map[string]int64{"qid": int64(st.qid),
			"unvis_e": unvisE, "unvis_h": unvisH, "unvis_l": unvisL, "mode": int64(st.e.Opt.Direction)})
	}
}

func (st *rankState) pickDirections(it IterTrace, unvisE, unvisH, unvisL int64) [partition.NumComponents]stats.Direction {
	var dirs [partition.NumComponents]stats.Direction
	switch st.e.Opt.Direction {
	case ModePushOnly:
		for c := range dirs {
			dirs[c] = stats.DirPush
		}
		return dirs
	case ModePullOnly:
		for c := range dirs {
			dirs[c] = stats.DirPull
		}
		return dirs
	}

	numH := int64(st.e.Part.Hubs.NumH)

	frac := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	activeHubFrac := frac(it.ActiveE+it.ActiveH, int64(st.k))
	activeEFrac := frac(it.ActiveE, st.numE)
	activeHFrac := frac(it.ActiveH, numH)
	activeLFrac := frac(it.ActiveL, st.numL)
	unvisHFrac := frac(unvisH, numH)
	unvisLFrac := frac(unvisL, st.numL)

	if st.e.Opt.Direction == ModeWholeIteration {
		// Vanilla direction optimization: one decision from overall frontier
		// density (the Figure 15 baseline).
		totalActive := it.ActiveE + it.ActiveH + it.ActiveL
		d := stats.DirPush
		if frac(totalActive, st.e.Part.Layout.N) > pullThreshold {
			d = stats.DirPull
		}
		for c := range dirs {
			dirs[c] = d
		}
		return dirs
	}

	alpha := pullThreshold
	beta := pullRatio
	pick := func(skip bool, pull bool) stats.Direction {
		if skip {
			// Degree-aware skipping: a sub-iteration with no active sources
			// or no unvisited destinations in its classes does nothing —
			// eliding it is exactly the late-iteration saving the paper
			// claims for sub-iteration direction optimization. The decision
			// uses only globally consistent counts, so every rank skips the
			// same collectives.
			return stats.DirSkip
		}
		if pull {
			return stats.DirPull
		}
		return stats.DirPush
	}
	activeHubs := it.ActiveE + it.ActiveH
	// Node-local components: source active ratio only (paper Section 4.2).
	dirs[partition.CompEH2EH] = pick(activeHubs == 0 || unvisE+unvisH == 0, activeHubFrac > alpha)
	dirs[partition.CompE2L] = pick(it.ActiveE == 0 || unvisL == 0, activeEFrac > alpha)
	dirs[partition.CompL2E] = pick(it.ActiveL == 0 || unvisE == 0, activeLFrac > alpha)
	// Remote components: compare message proxies.
	dirs[partition.CompH2L] = pick(it.ActiveH == 0 || unvisL == 0, unvisLFrac < activeHFrac*beta)
	dirs[partition.CompL2H] = pick(it.ActiveL == 0 || unvisH == 0, unvisHFrac < activeLFrac*beta)
	dirs[partition.CompL2L] = pick(it.ActiveL == 0 || unvisL == 0, unvisLFrac < activeLFrac*beta)
	return dirs
}
