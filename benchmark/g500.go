package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/validate"
	"repro/internal/wire"
)

// bfsArm runs Graph 500 BFS on one world: a single in-process engine, or
// one engine per goroutine-hosted process of a socket world, joined SPMD.
type bfsArm struct {
	in      *inputs
	engines []*core.Engine
	groups  []*comm.Group
	// fullCheck also runs the repository's own validate.BFS on the first
	// two roots; affordable at SCALE 16 only.
	fullCheck bool
}

func (a *bfsArm) do(i int) (opOut, error) {
	root := a.in.roots[i]
	results := make([]*core.Result, len(a.engines))
	errs := make([]error, len(a.engines))
	t0 := time.Now()
	if len(a.engines) == 1 {
		results[0], errs[0] = a.engines[0].Run(root)
	} else {
		var wg sync.WaitGroup
		for p, eng := range a.engines {
			wg.Add(1)
			go func(p int, eng *core.Engine) {
				defer wg.Done()
				results[p], errs[p] = eng.Run(root)
			}(p, eng)
		}
		wg.Wait()
	}
	out := opOut{wall: time.Since(t0), rec: &stats.Recorder{}}
	for p, err := range errs {
		if err != nil {
			return out, fmt.Errorf("root %d proc %d: %w", root, p, err)
		}
	}
	res := results[0]
	out.work, out.iters, out.hash = res.TraversedEdges, res.Iterations, hashInt64s(res.Parent)
	for p, other := range results {
		out.rec.Merge(other.Recorder)
		if p > 0 && hashInt64s(other.Parent) != out.hash {
			return out, fmt.Errorf("root %d: proc %d assembled a different parent array than proc 0", root, p)
		}
	}
	out.check = func() error {
		if err := a.in.checkBFS(root, res.Parent); err != nil {
			return err
		}
		if a.fullCheck && i < 2 {
			if _, err := validate.BFS(a.in.n, a.in.edges, root, res.Parent); err != nil {
				return fmt.Errorf("validate.BFS root %d: %w", root, err)
			}
		}
		return nil
	}
	return out, nil
}

func (a *bfsArm) wireBytes() uint64 {
	var b uint64
	for _, g := range a.groups {
		b += g.WireStats().BytesSent
	}
	return b
}

func (a *bfsArm) detail(r *result) {
	eng := a.engines[0]
	st := eng.Part.Stats
	r.detail("partition.build_s", eng.PartitionSeconds, "s", 1)
	r.detail("partition.degrees_s", st.DegreesSeconds, "s", 1)
	r.detail("partition.hubdir_s", st.HubDirSeconds, "s", 1)
	r.detail("partition.distribute_s", st.DistributeSeconds, "s", 1)
	r.detail("partition.assemble_s", st.AssembleSeconds, "s", 1)
	r.detail("core.construct_s", eng.ConstructSeconds, "s", 1)
	var ws wire.Stats
	for _, g := range a.groups {
		s := g.WireStats()
		ws.BytesSent += s.BytesSent
		ws.HeartbeatsSent += s.HeartbeatsSent
		ws.Reconnects += s.Reconnects
		ws.FramesResent += s.FramesResent
		ws.PeersLost += s.PeersLost
	}
	if len(a.groups) > 0 {
		r.detail("wire.bytes_sent_total", float64(ws.BytesSent), "bytes", 1)
		r.detail("wire.heartbeats_sent", float64(ws.HeartbeatsSent), "count", 1)
		r.detail("wire.reconnects", float64(ws.Reconnects), "count", 1)
		r.detail("wire.frames_resent", float64(ws.FramesResent), "count", 1)
		r.detail("wire.peers_lost", float64(ws.PeersLost), "count", 1)
	}
}

func (a *bfsArm) close() {
	for _, g := range a.groups {
		g.Close()
	}
}

// socketGroups binds one comm.Group per process on real unix sockets under
// a fresh directory: the construction internal/core/dist_test.go uses, with
// the handshake secret set and production-like heartbeats. No process dies
// in this workload, so peer-death detection stays far above any scheduler
// stall.
func socketGroups(tmp string, procs int) ([]*comm.Group, error) {
	dir, err := os.MkdirTemp(tmp, "sock-")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, procs)
	for p := range addrs {
		addrs[p] = "unix:" + filepath.Join(shortPath(dir), fmt.Sprintf("p%d.sock", p))
	}
	groups := make([]*comm.Group, 0, procs)
	for p := 0; p < procs; p++ {
		g, err := comm.NewGroup(wire.Config{
			Proc:           p,
			Addrs:          addrs,
			Secret:         "benchmark",
			HeartbeatEvery: 50 * time.Millisecond,
			PeerDeadAfter:  30 * time.Second,
			DialTimeout:    time.Second,
			WriteTimeout:   2 * time.Second,
			BackoffBase:    2 * time.Millisecond,
			BackoffCap:     50 * time.Millisecond,
		})
		if err != nil {
			for _, g := range groups {
				g.Close()
			}
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// meshOptions is the engine configuration every workload shares: defaults
// everywhere, thresholds for the scale, and a machine whose supernodes are
// the mesh rows, so row collectives stay inside a supernode and column
// collectives cross — inter_bytes is then not identically zero.
func meshOptions(scale int, mesh topology.Mesh, tr *trace.Tracer) core.Options {
	m := topology.NewSunway(mesh.Size())
	m.SupernodeSize = mesh.Cols
	return core.Options{Mesh: mesh, Machine: m, Thresholds: core.DefaultThresholds(scale), Trace: tr}
}

func runG500Inproc(e *env) error {
	scale := e.pick(20, 10)
	// 32 roots, not Graph 500's 64: checking one SCALE 20 root against the
	// sequential oracle costs 0.4 s, and a run has to fit the driver's cap.
	in, err := makeInputsSpan(e, scale, e.pick(32, 8))
	if err != nil {
		return err
	}
	cl := &closedLoop{
		in: in, ops: len(in.roots),
		p50As: "bfs_ms_p50", p95As: "bfs_ms_p95", rateAs: "teps_hm",
		maxTraced: 128,
		setup: func(tr *trace.Tracer) (arm, error) {
			eng, err := core.NewEngine(in.n, in.edges, meshOptions(scale, topology.Mesh{Rows: 2, Cols: 4}, tr))
			if err != nil {
				return nil, err
			}
			return &bfsArm{in: in, engines: []*core.Engine{eng}}, nil
		},
	}
	if err := cl.run(e); err != nil {
		return err
	}
	if e.cfg.trace {
		floorRatio(e.res, in)
	}
	return nil
}

func runG500Socket(e *env) error {
	scale := e.pick(16, 10)
	in, err := makeInputsSpan(e, scale, e.pick(64, 8))
	if err != nil {
		return err
	}
	const procs = 2
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	cl := &closedLoop{
		in: in, ops: len(in.roots),
		p50As: "bfs_ms_p50", p95As: "bfs_ms_p95", rateAs: "teps_hm",
		maxTraced: 512,
		setup: func(tr *trace.Tracer) (arm, error) {
			groups, err := socketGroups(e.tmp, procs)
			if err != nil {
				return nil, err
			}
			a := &bfsArm{in: in, groups: groups, fullCheck: true}
			for _, g := range groups {
				opt := meshOptions(scale, mesh, tr)
				opt.Dist = &comm.DistConfig{Group: g, ProcOf: comm.ContiguousProcOf(mesh.Size(), mesh.Size()/procs)}
				eng, err := core.NewEngine(in.n, in.edges, opt)
				if err != nil {
					a.close()
					return nil, err
				}
				a.engines = append(a.engines, eng)
			}
			return a, nil
		},
	}
	return cl.run(e)
}

// makeInputsSpan generates the inputs under a harness span.
func makeInputsSpan(e *env, scale, nroots int) (*inputs, error) {
	t0, s0 := time.Now(), e.now()
	in, err := makeInputs(scale, e.cfg.seed, nroots)
	e.span("generate", s0, time.Since(t0), map[string]int64{"scale": int64(scale)})
	return in, err
}

// floorRatio reports the plain single-threaded loop the distributed
// machinery is judged against: sequential BFS edges per second on the same
// graph, and the engine's harmonic-mean rate over it. With 8 ranks on 2
// cores no wall-clock scaling efficiency is claimed.
func floorRatio(r *result, in *inputs) {
	var rates []float64
	for _, root := range in.roots[:4] {
		t0 := time.Now()
		parent := in.csr.SequentialBFS(root)
		dt := time.Since(t0).Seconds()
		var deg int64
		for v, p := range parent {
			if p >= 0 {
				deg += in.csr.Degree(int64(v))
			}
		}
		rates = append(rates, float64(deg/2)/dt)
	}
	seq := median(rates)
	r.detail("graph.seq_edges_per_s", seq, "1/s", len(rates))
	for _, m := range r.Detail {
		if m.Name == "teps_hm.untraced" {
			r.detail("core.floor_ratio", ratio(m.Value, seq), "ratio", len(rates))
		}
	}
}
