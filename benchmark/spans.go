package main

import (
	"sort"

	"repro/internal/trace"
)

// layerAnalysis attributes the wall time of the traced operations to
// layers. Harness spans (rank -1, "harness/op" or "harness/sweep") parent
// the program's spans by containment; a span's self time is its duration
// minus the part its directly nested children cover, so a kernel's self time
// excludes the collectives it issued. Ranks run concurrently, so a layer's
// share is its self time summed over ranks ÷ (ranks × Σ operation wall):
// the mean rank's view of where the operation's wall went.
type layerAnalysis struct {
	ranks   int
	ops     int
	opWall  float64            // Σ harness operation spans, seconds
	runWall float64            // wall covered by the engines' run-loop spans, seconds
	self    map[string]float64 // layer → Σ self seconds over ranks
	fine    map[string]float64 // layer.name → Σ self seconds over ranks
	count   map[string]int
	// Collective imbalance: for each collective instance, the time its
	// members spent inside beyond the fastest member's — waiting for the
	// slowest rank to arrive.
	collTotal, collWait float64
}

func analyzeSpans(spans []trace.Span, opName string) *layerAnalysis {
	la := &layerAnalysis{self: map[string]float64{}, fine: map[string]float64{}, count: map[string]int{}}
	byRank := map[int][]trace.Span{}
	var opStarts []int64
	var runEnd int64 // spans arrive ordered by start: the covered wall is a running union
	for _, sp := range spans {
		switch {
		case sp.Rank < 0:
			if sp.Name == opName {
				la.ops++
				la.opWall += float64(sp.Dur) / 1e9
				opStarts = append(opStarts, sp.Start)
			} else if sp.Kind == trace.KindEvent && sp.Name == "run" {
				// The engines of a socket world run concurrently and each
				// emits its own span; overlapping spans count once.
				start, end := max(sp.Start, runEnd), sp.Start+sp.Dur
				if end > start {
					la.runWall += float64(end-start) / 1e9
					runEnd = end
				}
			}
		case sp.Dur == 0: // instants: skipped kernels, decisions
		case sp.Kind == trace.KindCheckpoint && sp.Name == "commit":
			// The writer goroutine's stream: asynchronous to the rank, so
			// outside the nesting and outside the wall attribution.
			la.fine["checkpoint.commit"] += float64(sp.Dur) / 1e9
			la.count["checkpoint.commit"]++
		default:
			byRank[sp.Rank] = append(byRank[sp.Rank], sp)
		}
	}
	sort.Slice(opStarts, func(i, j int) bool { return opStarts[i] < opStarts[j] })
	la.ranks = len(byRank)

	// instance identifies one collective across ranks: the k-th "<name>"
	// of iteration iter in operation op is the same call on every member.
	type instance struct {
		op, k int
		iter  int64
		name  string
	}
	type group struct {
		sum, min float64
		n        int
	}
	groups := map[instance]*group{}
	for _, ss := range byRank {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].Dur > ss[j].Dur
		})
		child := make([]int64, len(ss))
		topLevel := make([]bool, len(ss))
		var stack []int
		for i, sp := range ss {
			for len(stack) > 0 {
				top := ss[stack[len(stack)-1]]
				if top.Start+top.Dur > sp.Start {
					break
				}
				stack = stack[:len(stack)-1]
			}
			topLevel[i] = true
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				child[p] += sp.Dur
				topLevel[i] = ss[p].Kind != trace.KindCollective
			}
			stack = append(stack, i)
		}
		seen := map[instance]int{}
		for i, sp := range ss {
			self := float64(sp.Dur-child[i]) / 1e9
			if self < 0 {
				self = 0
			}
			layer, fine := layerOf(sp)
			la.self[layer] += self
			la.fine[fine] += self
			la.count[fine]++
			if sp.Kind != trace.KindCollective || !topLevel[i] {
				continue
			}
			key := instance{iter: sp.Iter, name: sp.Name,
				op: sort.Search(len(opStarts), func(j int) bool { return opStarts[j] > sp.Start })}
			seen[key]++
			key.k = seen[key]
			d := float64(sp.Dur) / 1e9
			g := groups[key]
			if g == nil {
				g = &group{min: d}
				groups[key] = g
			}
			g.sum += d
			g.n++
			if d < g.min {
				g.min = d
			}
		}
	}
	for _, g := range groups {
		la.collTotal += g.sum
		la.collWait += g.sum - g.min*float64(g.n)
	}
	return la
}

func layerOf(sp trace.Span) (layer, fine string) {
	switch sp.Kind {
	case trace.KindKernel:
		return "core.kernel", "core.kernel." + sp.Name + "." + sp.Dir
	case trace.KindCollective:
		return "comm", "comm." + sp.Name
	case trace.KindSync:
		return "core.sync", "core.sync." + sp.Name
	case trace.KindReduce:
		return "core.sync", "core.reduce." + sp.Name
	case trace.KindCheckpoint:
		return "checkpoint.capture", "checkpoint." + sp.Name
	}
	return "core." + sp.Kind.String(), "core." + sp.Kind.String() + "." + sp.Name
}

// report adds the gated per-layer shares. What no named layer covers is
// core.other_share: the driver's own time between spans (votes, direction
// choice, frontier bookkeeping) plus time a rank sat descheduled.
func (la *layerAnalysis) report(r *result) {
	denom := float64(la.ranks) * la.opWall
	kernel := ratio(la.self["core.kernel"], denom)
	coll := ratio(la.self["comm"], denom)
	sync := ratio(la.self["core.sync"], denom)
	capture := ratio(la.self["checkpoint.capture"], denom)
	// Wall outside the engine's run loop: result assembly and run set-up.
	assemble := ratio(la.opWall-la.runWall, la.opWall)
	r.layer("core.kernel_share", kernel, "fraction")
	r.layer("comm.collective_share", coll, "fraction")
	r.layer("comm.wait_share", ratio(la.collWait, la.collTotal), "fraction")
	r.layer("core.sync_share", sync, "fraction")
	r.layer("checkpoint.capture_share", capture, "fraction")
	r.layer("core.assemble_share", assemble, "fraction")
	r.layer("core.other_share", 1-kernel-coll-sync-capture-assemble, "fraction")
}

// details adds every span name's self time per operation (rank-mean) and
// its call count per operation.
func (la *layerAnalysis) details(r *result) {
	r.detail("trace.ops", float64(la.ops), "count", la.ops)
	names := make([]string, 0, len(la.fine))
	for name := range la.fine {
		names = append(names, name)
	}
	sort.Strings(names)
	perOp := float64(la.ranks) * float64(la.ops)
	for _, name := range names {
		r.detail("span."+name+"_ms_per_op", ratio(la.fine[name]*1e3, perOp), "ms", la.count[name])
	}
}
