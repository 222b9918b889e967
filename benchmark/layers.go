package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bfsd"
	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/psort"
	"repro/internal/rmat"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The layer microbenchmarks: each layer timed alone through its public
// functions, so a regression or a win the end-to-end workloads show can be
// pinned to one layer. README.md says which end-to-end metric each is
// expected to move. They gate nothing.

// micro calls fn until budget has elapsed (at least three times) and
// returns the median of the durations fn itself reports, so fn can keep
// its own set-up out of the timer.
func micro(budget time.Duration, fn func() time.Duration) (float64, int) {
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < budget; {
		secs = append(secs, fn().Seconds())
	}
	return median(secs), len(secs)
}

// timed runs fn once under the clock.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// benchSink keeps the compiler from discarding a timed loop's result.
var benchSink int

type layerBench struct {
	w      io.Writer
	out    []metric
	budget time.Duration
	scale  int
	tmp    string
}

func (lb *layerBench) add(name string, v float64, unit string, n int) {
	lb.out = append(lb.out, metric{Name: name, Value: v, Unit: unit, N: n})
	fmt.Fprintf(lb.w, "  %-44s %14.6g %-10s n=%d\n", name, v, unit, n)
}

func runLayers(w io.Writer, quick bool) []metric {
	lb := &layerBench{w: w, budget: 400 * time.Millisecond, scale: 18}
	if quick {
		lb.budget, lb.scale = 20*time.Millisecond, 10
	}
	tmp, err := os.MkdirTemp("", "bench-layers-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil
	}
	defer os.RemoveAll(tmp)
	lb.tmp = tmp
	fmt.Fprintln(w, "== layers")
	lb.inputs()
	lb.bitmaps()
	lb.collectives()
	lb.frames()
	lb.checkpoints()
	lb.service()
	return lb.out
}

// inputs covers rmat, psort, partition and the sequential floor.
func (lb *layerBench) inputs() {
	cfg := rmat.Config{Scale: lb.scale, Seed: 42}
	var edges []rmat.Edge
	s, n := micro(0, func() time.Duration { return timed(func() { edges = rmat.Generate(cfg) }) })
	lb.add(fmt.Sprintf("rmat.gen_medges_per_s.s%d", lb.scale), float64(len(edges))/s/1e6, "Medges/s", n)

	rng := rand.New(rand.NewSource(42))
	base := make([]uint64, 1<<22>>(18-lb.scale))
	for i := range base {
		base[i] = rng.Uint64()
	}
	keys := make([]uint64, len(base))
	s, n = micro(lb.budget, func() time.Duration {
		copy(keys, base)
		return timed(func() { psort.RadixSortUint64(keys, 0) })
	})
	lb.add("psort.radix_mkeys_per_s", float64(len(keys))/s/1e6, "Mkeys/s", n)

	mesh := topology.Mesh{Rows: 2, Cols: 2}
	var part *partition.Partitioned
	s, n = micro(0, func() time.Duration {
		return timed(func() {
			var err error
			if part, err = partition.Build(cfg.NumVertices(), edges, mesh, core.DefaultThresholds(lb.scale), 0); err != nil {
				panic(err) // a 2x2 mesh with the scale's default thresholds is valid
			}
		})
	})
	lb.add(fmt.Sprintf("partition.build_s%d_s", lb.scale), s, "s", n)
	lb.add("partition.distribute_s", part.Stats.DistributeSeconds, "s", 1)
	lb.add("partition.assemble_s", part.Stats.AssembleSeconds, "s", 1)
	lb.add("partition.sort_s", part.Stats.SortSeconds, "s", 1)

	csr := graph.FromEdges(cfg.NumVertices(), edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	hub := int64(0)
	for v := int64(1); v < csr.N; v++ {
		if csr.Degree(v) > csr.Degree(hub) {
			hub = v
		}
	}
	s, n = micro(lb.budget, func() time.Duration { return timed(func() { csr.SequentialBFS(hub) }) })
	lb.add(fmt.Sprintf("graph.seq_edges_per_s.s%d", lb.scale), float64(csr.NumEdges()/2)/s, "1/s", n)
}

// bitmaps times Or + Count + ForEach over Q stacked planes of 2^20 bits.
func (lb *layerBench) bitmaps() {
	const bits = 1 << 20
	for _, q := range []int{1, 8, 64} {
		src, dst := bitmap.NewPlanes(q, bits), bitmap.NewPlanes(q, bits)
		rng := rand.New(rand.NewSource(int64(q)))
		for p := 0; p < q; p++ {
			for i := 0; i < bits/64; i++ { // one bit in 64: a mid-run frontier
				src.Plane(p).Set(rng.Intn(bits))
			}
		}
		s, n := micro(lb.budget/2, func() time.Duration {
			dst.Reset()
			return timed(func() {
				for p := 0; p < q; p++ {
					dst.Plane(p).Or(src.Plane(p))
					benchSink += dst.Plane(p).Count()
					dst.Plane(p).ForEach(func(i int) { benchSink += i })
				}
			})
		})
		kwords := float64(q) * bits / 64 / 1000
		lb.add(fmt.Sprintf("bitmap.planes_q%d_ns_per_kword", q), s*1e9/kwords, "ns", n)
	}
}

// collectives times four collectives at two payload sizes on four ranks,
// in process and split over two goroutine-hosted processes on unix sockets.
func (lb *layerBench) collectives() {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	inproc, err := comm.NewWorld(4, mesh, topology.NewSunway(4))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	groups, err := socketGroups(lb.tmp, 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	var socket []*comm.World
	for _, g := range groups {
		w, err := comm.NewWorldOpts(4, mesh, topology.NewSunway(4),
			comm.WorldOptions{Dist: &comm.DistConfig{Group: g, ProcOf: comm.ContiguousProcOf(4, 2)}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return
		}
		socket = append(socket, w)
	}
	backends := []struct {
		name   string
		worlds []*comm.World
	}{{"inproc", []*comm.World{inproc}}, {"unix", socket}}

	kinds := []struct {
		name string
		call func(r *comm.Rank, payload []uint64) error
	}{
		{"alltoallv", func(r *comm.Rank, p []uint64) error {
			k := r.World.Size()
			send := make([][]uint64, k)
			for j := range send {
				send[j] = p[j*len(p)/k : (j+1)*len(p)/k]
			}
			_, err := comm.Alltoallv(r.World, send)
			return err
		}},
		{"allgatherv", func(r *comm.Rank, p []uint64) error {
			_, err := comm.Allgatherv(r.World, p)
			return err
		}},
		{"reduce_scatter_or", func(r *comm.Rank, p []uint64) error {
			_, err := comm.ReduceScatterOr(r.World, p)
			return err
		}},
		{"allreduce_sum", func(r *comm.Rank, p []uint64) error {
			vals := make([]int64, len(p))
			_, err := comm.AllreduceSumInt64s(r.World, vals)
			return err
		}},
	}
	for _, be := range backends {
		for _, kind := range kinds {
			for _, size := range []int{64, 64 << 10} {
				calls := 200
				if size > 64 {
					calls = 40
				}
				s, n := micro(lb.budget/4, func() time.Duration {
					return timed(func() {
						var wg sync.WaitGroup
						for _, w := range be.worlds {
							wg.Add(1)
							go func(w *comm.World) {
								defer wg.Done()
								w.Run(func(r *comm.Rank) {
									payload := make([]uint64, size/8)
									for i := 0; i < calls; i++ {
										if err := kind.call(r, payload); err != nil {
											panic(err) // no fault transport: cannot fail
										}
									}
								})
							}(w)
						}
						wg.Wait()
					})
				})
				lb.add(fmt.Sprintf("comm.%s.%s_%dB_us_per_call", be.name, kind.name, size), s*1e6/float64(calls), "us", n*calls)
			}
		}
	}
}

// frames times wire frame encode + decode, CRC included.
func (lb *layerBench) frames() {
	for _, size := range []int{64, 4 << 10, 256 << 10} {
		f := &wire.Frame{Type: wire.TypeData, Epoch: 1, Gen: 2, Comm: 3, Seq: 4, Rank: 1, NetSeq: 5, Payload: make([]byte, size)}
		var buf []byte
		const reps = 64
		s, n := micro(lb.budget/4, func() time.Duration {
			return timed(func() {
				for i := 0; i < reps; i++ {
					buf = wire.AppendFrame(buf[:0], f)
					if _, _, err := wire.DecodeFrame(buf); err != nil {
						panic(err) // the frame was just encoded
					}
				}
			})
		})
		lb.add(fmt.Sprintf("wire.frame_mb_per_s_%dB", size), float64(size)*reps/s/1e6, "MB/s", n*reps)
	}
}

// checkpoints times Writer.Checkpoint + Close on state sized like one rank
// of the analytics workload (SCALE 18 on four ranks).
func (lb *layerBench) checkpoints() {
	store, err := checkpoint.Open(lb.tmp + "/ckpt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	lLen := 1 << lb.scale / 4
	hubLen := lLen / 16
	hubWords, lWords := hubLen/64, lLen/64
	const iters = 8
	run := 0
	s, n := micro(lb.budget, func() time.Duration {
		run++
		sc, err := store.Scope(fmt.Sprintf("bench%d", run))
		if err != nil {
			panic(err)
		}
		defer sc.Remove()
		cur := checkpoint.NewState(hubWords, lWords, hubLen, lLen)
		return timed(func() {
			w, err := checkpoint.NewWriter(sc, 0, hubWords, lWords, hubLen, lLen, nil, nil)
			if err != nil {
				panic(err)
			}
			for it := int64(-1); it < iters-1; it++ {
				for i := 0; i < lLen; i += 17 { // one slot in 17 changes per iteration
					cur.ParentL[i] = it
					cur.LVisited[i/64] |= 1 << uint(i%64)
				}
				w.Checkpoint(it, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
					cur.ParentHub, cur.ParentL, it, it)
			}
			w.Close()
		})
	})
	lb.add("checkpoint.capture_commit_ms_per_iter", s*1e3/iters, "ms", n*iters)
}

// stubEngine answers every sweep with one prebuilt parent array, so the
// batcher and HTTP layers are timed without a traversal under them.
type stubEngine struct{ parent []int64 }

func (s stubEngine) RunBatch(roots []int64) (*core.BatchResult, error) {
	res := &core.BatchResult{Roots: roots, AvgOccupancy: float64(len(roots))}
	for _, root := range roots {
		res.Queries = append(res.Queries, &core.Result{Root: root, Parent: s.parent, Iterations: 1})
	}
	return res, nil
}

// service covers the batcher flush path, request decode, and the encode of
// the largest response.
func (lb *layerBench) service() {
	parent := make([]int64, 1<<16)
	for i := range parent {
		parent[i] = int64(i / 2)
	}
	for _, width := range []int{1, 8} {
		b := bfsd.NewBatcher(stubEngine{parent}, bfsd.Config{Window: time.Microsecond, MaxBatch: width, MaxQueued: 64})
		const rounds = 200
		s, n := micro(lb.budget/2, func() time.Duration {
			return timed(func() {
				var wg sync.WaitGroup
				for c := 0; c < width; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							if _, err := b.Submit(context.Background(), 1); err != nil {
								panic(err) // 64 slots for at most 8 submitters
							}
						}
					}()
				}
				wg.Wait()
			})
		})
		b.Close()
		lb.add(fmt.Sprintf("bfsd.flush_us_per_query_batch%d", width), s*1e6/float64(rounds*width), "us", n*rounds*width)
	}

	const body = `{"root":12345,"op":"distance","target":54321}`
	const reps = 256
	s, n := micro(lb.budget/4, func() time.Duration {
		return timed(func() {
			for i := 0; i < reps; i++ {
				if _, err := bfsd.DecodeQueryRequest(strings.NewReader(body)); err != nil {
					panic(err)
				}
			}
		})
	})
	lb.add("bfsd.decode_ns", s*1e9/reps, "ns", n*reps)

	b := bfsd.NewBatcher(stubEngine{parent}, bfsd.Config{Window: time.Microsecond})
	defer b.Close()
	h := bfsd.NewServer(b, int64(len(parent))).Handler()
	s, n = micro(lb.budget/2, func() time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"root":1,"op":"parents"}`))
		rec := httptest.NewRecorder()
		d := timed(func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("parents query: HTTP %d", rec.Code))
		}
		return d
	})
	lb.add("bfsd.parents_encode_ms", s*1e3, "ms", n)
}
