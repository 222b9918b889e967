package core

import (
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// chooseDirections implements sub-iteration direction optimization
// (Section 4.2) plus the tail-iteration representation switch: it fills
// it.Directions and it.Sparse, which the workload keeps for the iteration
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
func (st *rankState) chooseDirections(it *IterTrace) {
	var s0 int64
	if st.tr != nil {
		s0 = st.tr.Now()
	}
	it.Directions = st.pickDirections(*it)
	it.Sparse = st.pickSparse(*it, it.Directions)
	if st.tr != nil {
		// One decision record per iteration: the globally consistent inputs
		// the choice derives from, and the per-component outcome (the
		// Figure 15 unit). Unvisited counts are recomputed here so the
		// tracing-off path never pays for them.
		visitedE := int64(st.hubVisited.CountRange(0, int(st.numE)))
		visitedH := int64(st.hubVisited.CountRange(int(st.numE), st.k))
		args := map[string]int64{
			"qid":        int64(st.qid),
			"active_e":   it.ActiveE,
			"active_h":   it.ActiveH,
			"active_l":   it.ActiveL,
			"unvis_e":    st.numE - visitedE,
			"unvis_h":    int64(st.e.Part.Hubs.NumH) - visitedH,
			"unvis_l":    st.numL - st.visitL,
			"mode":       int64(st.e.Opt.Direction),
			"last_bytes": st.lastIterBytes,
		}
		for c := 0; c < int(partition.NumComponents); c++ {
			args["dir_"+partition.Component(c).String()] = int64(it.Directions[c])
			if it.Sparse[c] {
				args["sparse_"+partition.Component(c).String()] = 1
			}
		}
		st.tr.Emit(trace.Span{Kind: trace.KindDecision, Epoch: st.r.Epoch(),
			Iter: st.curIter, Step: -1, Name: "choose_directions",
			Start: s0, Dur: st.tr.Now() - s0, Args: args})
	}
}

// pickSparse chooses, per remote push component, between the dense
// per-destination exchange and the sparse-update allgather. Only pushing
// remote components are eligible (pull kernels exchange frontiers, not
// messages), and hierarchical L2L always stays dense — two-stage forwarding
// is that mode's point, and its forwarder-ordered applies differ from a flat
// exchange's member order, which would break the dense/sparse bit-exactness
// contract. Under SparseAuto a component goes sparse when its global
// active-source count fits the cutoff and the previous iteration's observed
// global traffic (unknown = -1 right after start or checkpoint resume, on
// every rank alike) fits the byte ceiling.
func (st *rankState) pickSparse(it IterTrace, dirs [partition.NumComponents]stats.Direction) [partition.NumComponents]bool {
	var sp [partition.NumComponents]bool
	mode := st.e.Opt.SparseTail
	if mode == SparseOff {
		return sp
	}
	eligible := func(c partition.Component, activeSrc int64) bool {
		if dirs[c] != stats.DirPush {
			return false
		}
		if c == partition.CompL2L && st.e.Opt.Hierarchical {
			return false
		}
		if mode == SparseAlways {
			return true
		}
		return st.e.sparseTail(activeSrc, st.lastIterBytes)
	}
	sp[partition.CompH2L] = eligible(partition.CompH2L, it.ActiveH)
	sp[partition.CompL2H] = eligible(partition.CompL2H, it.ActiveL)
	sp[partition.CompL2L] = eligible(partition.CompL2L, it.ActiveL)
	return sp
}

func (st *rankState) pickDirections(it IterTrace) [partition.NumComponents]stats.Direction {
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
	visitedE := int64(st.hubVisited.CountRange(0, int(st.numE)))
	visitedH := int64(st.hubVisited.CountRange(int(st.numE), st.k))
	unvisE := st.numE - visitedE
	unvisH := numH - visitedH
	unvisL := st.numL - st.visitL

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
	beta := st.e.Opt.PullRatio
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
