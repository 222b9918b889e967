package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/rmat"
)

// BenchmarkHubSync times one touched-delegate sync (column allgather, fold,
// row allgather, fold) on the 2x2 bench world with every rank having lowered
// 0.1% / 10% / 100% of the K hub labels since the last sync — the layer the
// per-iteration sync cost of WCC, k-core and SSSP is pinned to. bytes/op is
// what one rank ships per sync.
func BenchmarkHubSync(b *testing.B) {
	e := benchEngine(b)
	k := e.Part.Hubs.K()
	for _, frac := range []float64{0.001, 0.10, 1} {
		n := max(1, int(frac*float64(k)))
		b.Run(fmt.Sprintf("touched=%g%%", 100*frac), func(b *testing.B) {
			b.ReportAllocs()
			var sent int64
			e.World.Run(func(r *comm.Rank) {
				st := newWCCState(e, r)
				for h := range st.hubLabel {
					st.hubLabel[h] = int64(b.N) + 1
				}
				// Set-up is per rank and inside Run; time from here, all ranks
				// held between the two barriers while rank 0 resets the clock.
				_ = r.World.Barrier()
				if r.ID == 0 {
					b.ResetTimer()
				}
				_ = r.World.Barrier()
				base := r.Stats
				for i := 0; i < b.N; i++ {
					for j := 0; j < n; j++ {
						// Ranks overlap on most hubs and differ on some, so the
						// fold both agrees and lowers.
						if h, v := int32((j*(k/n)+r.ID)%k), int64(b.N-i); v < st.hubLabel[h] {
							st.hubLabel[h] = v
							st.scr.touched.add(h)
						}
					}
					if err := st.syncLabels(); err != nil {
						b.Error(err)
						return
					}
				}
				if r.ID == 0 {
					delta := r.Stats.Delta(&base)
					sent = delta.TotalBytes()
				}
			})
			b.ReportMetric(float64(sent)/float64(b.N), "bytes/op")
		})
	}
}

// scratchBytes is the capacity the engine's retained exchange buffers hold,
// over all ranks. It grows exactly when a send buffer had to be reallocated.
func scratchBytes(e *Engine) (total int) {
	for i := range e.scratch {
		s := &e.scratch[i]
		total += cap(s.ups)*24 + cap(s.hubRecs)*16 + cap(s.distRecs)*24 + cap(s.touched.list)*4 +
			cap(s.fwdAt)*8 + (cap(s.sendWords)+cap(s.recvWords))*8
		for _, p := range s.pushParts {
			total += cap(p) * 16
		}
		for _, p := range s.distParts {
			total += cap(p) * 24
		}
	}
	return total
}

// BenchmarkWorkloadExchangeAllocs runs warm runs of each workload on one
// engine and pins the exchange layer's claim: once a first run has grown
// them, the dense send buffers, the sparse update buffer, the pull-frontier
// gathers and the delegate-sync records come out of Engine.scratch and no
// iteration allocates one (sendbuf_B/op is the growth of their capacity per
// run and must be 0). All five workloads share one remote-push path, so the
// claim holds for all five, BFS at batch width 1, 8 and 16 included. allocs/op
// is what is left: the receive-side copies comm makes, the kernels' receive
// closures, result arrays and per-run state. The two width-8 rows run the
// same roots as full trees and as target queries, which assemble no N-entry
// parent array: B/op between them is at least 8 × N × 8 bytes apart.
func BenchmarkWorkloadExchangeAllocs(b *testing.B) {
	e := benchEngine(b)
	root := firstConnectedRootOf(e)
	roots := distinctConnectedRoots(e, 16)
	bfs := func(qs []Query) func() (int, error) {
		return func() (int, error) {
			br, err := e.RunQueries(qs)
			if err != nil {
				return 0, err
			}
			return br.Iterations, nil
		}
	}
	// Each width-8 target query asks for the next root, a vertex its tree
	// reaches.
	targets := fullTrees(roots[:8]...)
	for i := range targets {
		targets[i].Target = roots[(i+1)%8]
	}
	value := func(run func() (*WorkloadResult, error)) func() (int, error) {
		return func() (int, error) {
			res, err := run()
			if err != nil {
				return 0, err
			}
			return res.Iterations, nil
		}
	}
	for _, w := range []struct {
		name string
		run  func() (int, error)
	}{
		{"bfs", bfs(fullTrees(root))},
		{"bfs-batch8", bfs(fullTrees(roots[:8]...))},
		{"bfs-batch8-targets", bfs(targets)},
		{"bfs-batch16", bfs(fullTrees(roots...))},
		{"wcc", value(e.RunWCC)},
		{"sssp", value(func() (*WorkloadResult, error) { return e.RunSSSP(root, 7, 0) })},
		{"kcore", value(func() (*WorkloadResult, error) { return e.RunKCore(3) })},
		{"pagerank", value(func() (*WorkloadResult, error) { return e.RunPageRank(0.85, 1e-9, 0) })},
	} {
		b.Run(w.name, func(b *testing.B) {
			if _, err := w.run(); err != nil { // warm: grows the scratch once
				b.Fatal(err)
			}
			warm := scratchBytes(e)
			b.ReportAllocs()
			b.ResetTimer()
			iters := 0
			for i := 0; i < b.N; i++ {
				n, err := w.run()
				if err != nil {
					b.Fatal(err)
				}
				iters += n
			}
			grown := scratchBytes(e) - warm
			b.ReportMetric(float64(grown)/float64(b.N), "sendbuf_B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
			if grown != 0 {
				b.Fatalf("warm runs grew the retained send buffers by %d bytes", grown)
			}
		})
	}
}

// BenchmarkCheckpointEvery1Overhead measures what the async double-buffered
// checkpoint writer costs the traversal at the most aggressive setting
// (-checkpoint-every=1: a delta capture after every BFS iteration), against
// an identical engine with checkpointing off. Prints the per-iteration
// overhead in ns and as a percentage of the fault-free iteration time.
func BenchmarkCheckpointEvery1Overhead(b *testing.B) {
	cfg := rmat.Config{Scale: 14, Seed: 42}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	plain, err := NewEngine(n, edges, Options{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	root := firstConnectedRootOf(plain)
	ck, err := NewEngine(n, edges, Options{Ranks: 4, CheckpointDir: b.TempDir(), CheckpointEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Warm both paths (graph tier write, partitioning) outside the timing.
	if _, err := plain.Run(root); err != nil {
		b.Fatal(err)
	}
	if _, err := ck.Run(root); err != nil {
		b.Fatal(err)
	}
	var plainNs, ckNs, iters, segs, bytes, dropped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plain.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		plainNs += res.Time.Nanoseconds()
		ckRes, err := ck.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		if ckRes.Recovery.CheckpointSegments == 0 {
			b.Fatal("checkpointed run committed no segments")
		}
		ckNs += ckRes.Time.Nanoseconds()
		iters += int64(ckRes.Iterations)
		segs += ckRes.Recovery.CheckpointSegments
		bytes += ckRes.Recovery.CheckpointBytes
		dropped += ckRes.Recovery.CheckpointDropped
	}
	b.StopTimer()
	perIter := float64(ckNs-plainNs) / float64(iters)
	pct := 100 * float64(ckNs-plainNs) / float64(plainNs)
	b.ReportMetric(perIter, "ns-overhead/iter")
	b.ReportMetric(pct, "%overhead")
	b.Logf("checkpoint-every=1 over %d runs: plain=%v checkpointed=%v -> %.0f ns/iter (%.2f%%) overhead; %d segments, %d bytes, %d captures dropped",
		b.N, time.Duration(plainNs), time.Duration(ckNs), perIter, pct, segs, bytes, dropped)
}
