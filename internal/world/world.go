// Package world is the one description of a BFS world and the one way to
// build it. A Spec names the graph, the rank mesh, the engine switches, the
// resilience policy and — for a multi-process world — the socket group;
// cmd/bfsbench, cmd/bfsd and cmd/bfsrun (supervisor and workers) declare
// their shared flags from it, validate them together, load the graph, join
// the socket group, build the graph500.Config and fill the report's
// configuration blocks through it. What it hides is how flags, mesh and
// rank→process map must agree: nothing outside this package derives one
// from the other.
package world

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	graph500 "repro"
	"repro/internal/comm"
	"repro/internal/edgeio"
	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/internal/wire"
)

// Spec is a world as plain data: what the flags fill, what Validate
// completes, and what cmd/bfsrun hands its workers as one JSON value.
type Spec struct {
	// Graph: an R-MAT graph of Scale generated from Seed, or the edge list
	// in Input (format InFormat: text or bin).
	Scale    int
	Seed     uint64
	Input    string
	InFormat string

	// Mesh: Ranks simulated nodes on the squarest mesh, or Rows×Cols (which
	// then decides Ranks). Zero thresholds pick the scale default.
	Ranks, Rows, Cols      int
	EThreshold, HThreshold int64

	// Engine.
	Hierarchical bool
	Sparse       string // auto, off or always

	// Resilience. Faults is an internal/faultinject plan; Deadline and
	// MaxRetries apply only under one.
	Faults          string
	Deadline        time.Duration
	MaxRetries      int
	CheckpointDir   string
	CheckpointEvery int
	Recovery        string // shrink or restore

	// Socket group; Addrs is empty for an in-process world. The first
	// len(Addrs)-Spares processes host RanksPerProc consecutive ranks each,
	// the rest are spares. Listen is this process's own entry of Addrs.
	Listen       string
	Addrs        []string
	RanksPerProc int
	Spares       int
	Secret       string
	PeerDead     time.Duration
}

// Default is the spec every launcher starts from before it sets its own
// scale, ranks and recovery defaults and registers flags.
func Default() Spec {
	return Spec{Seed: 42, InFormat: "bin", Sparse: "auto",
		CheckpointEvery: 1, Recovery: "shrink"}
}

// GraphFlags registers the graph flags; s's current values are the defaults.
func (s *Spec) GraphFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Scale, "scale", s.Scale, "graph SCALE: 2^scale vertices, 16*2^scale edges")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "generator seed")
	fs.StringVar(&s.Input, "input", s.Input, "load edge list from file instead of generating")
	fs.StringVar(&s.InFormat, "informat", s.InFormat, "input format: text or bin")
}

// EngineFlags registers the mesh, engine and resilience flags.
func (s *Spec) EngineFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Ranks, "ranks", s.Ranks, "simulated node count, on the squarest mesh (0 in a socket world = rank-hosting processes x -ranks-per-proc)")
	fs.IntVar(&s.Rows, "rows", s.Rows, "mesh rows (with -cols; overrides -ranks)")
	fs.IntVar(&s.Cols, "cols", s.Cols, "mesh cols (with -rows; overrides -ranks)")
	fs.Int64Var(&s.EThreshold, "ethreshold", s.EThreshold, "E degree threshold (with -hthreshold; 0 = scale default)")
	fs.Int64Var(&s.HThreshold, "hthreshold", s.HThreshold, "H degree threshold (with -ethreshold; 0 = scale default)")
	fs.BoolVar(&s.Hierarchical, "hierarchical", s.Hierarchical, "forward L2L messages via mesh intersections")
	fs.StringVar(&s.Sparse, "sparse", s.Sparse, "sparse tail collective policy: auto, off or always")
	fs.StringVar(&s.Faults, "faults", s.Faults, "fault-injection plan, e.g. \"seed=42,delay=0.01,fail=0.001\", \"kill@rank=3,iter=2\" or (bfsrun) \"sigkill@proc=1,iter=2\"")
	fs.DurationVar(&s.Deadline, "deadline", s.Deadline, "per-collective deadline under fault injection (0 = off)")
	fs.IntVar(&s.MaxRetries, "maxretries", s.MaxRetries, "max consecutive retries of a failed iteration under fault injection (0 = default 4)")
	fs.StringVar(&s.CheckpointDir, "checkpoint-dir", s.CheckpointDir, "durable checkpoint store directory, shared by every process of a socket world (empty = checkpointing off)")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", s.CheckpointEvery, "iterations between traversal checkpoints")
	fs.StringVar(&s.Recovery, "recovery", s.Recovery, "world rebuild after a fail-stop: shrink or restore")
}

// SocketFlags registers what every socket world takes, however its
// processes get started.
func (s *Spec) SocketFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.RanksPerProc, "ranks-per-proc", s.RanksPerProc, "ranks each rank-hosting process serves (0 = ranks / processes)")
	fs.StringVar(&s.Secret, "secret", s.Secret, "shared world secret authenticating the socket handshake (or BFS_WORLD_SECRET)")
	fs.DurationVar(&s.PeerDead, "peer-dead", s.PeerDead, "wire silence budget before a peer is declared dead (0 = 3s)")
}

// JoinFlags registers the address flags of a hand-started socket world, one
// process per command line; a supervisor that assigns addresses skips them.
func (s *Spec) JoinFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Listen, "listen", s.Listen, "this process's socket address, unix:PATH or tcp:HOST:PORT (requires -join)")
	fs.Func("join", "comma-separated addresses of every process in the world, in process order (must contain -listen)",
		func(v string) error { s.Addrs = strings.Split(v, ","); return nil })
}

var (
	sparseModes   = map[string]graph500.SparseMode{"auto": graph500.SparseAuto, "off": graph500.SparseOff, "always": graph500.SparseAlways}
	recoveryModes = map[string]graph500.RecoveryMode{"shrink": graph500.ShrinkRecovery, "restore": graph500.RestoreRecovery}
)

// Validate checks the fields against each other and completes the derived
// ones (Ranks from the mesh or the process count, RanksPerProc, Secret from
// BFS_WORLD_SECRET), so that mesh and process map are computed from the same
// rank count. It is idempotent.
func (s *Spec) Validate() error {
	if _, ok := sparseModes[s.Sparse]; !ok {
		return fmt.Errorf("unknown -sparse %q (want auto, off or always)", s.Sparse)
	}
	if _, ok := recoveryModes[s.Recovery]; !ok {
		return fmt.Errorf("unknown -recovery %q (want shrink or restore)", s.Recovery)
	}
	if s.Input != "" {
		if _, err := edgeio.ParseFormat(s.InFormat); err != nil {
			return err
		}
	}
	if _, err := s.FaultPlan(); err != nil {
		return err
	}
	if s.Rows < 0 || s.Cols < 0 || (s.Rows > 0) != (s.Cols > 0) {
		return fmt.Errorf("-rows and -cols must be set together, both positive (got %d x %d)", s.Rows, s.Cols)
	}
	if s.EThreshold < 0 || s.HThreshold < 0 || (s.EThreshold > 0) != (s.HThreshold > 0) {
		return fmt.Errorf("-ethreshold and -hthreshold must be set together, both positive (got %d, %d)", s.EThreshold, s.HThreshold)
	}
	if s.Rows > 0 {
		s.Ranks = s.Rows * s.Cols
	}
	if s.RanksPerProc < 0 || s.Spares < 0 {
		return fmt.Errorf("-ranks-per-proc and the spare count must not be negative")
	}
	if len(s.Addrs) == 0 {
		if s.Listen != "" {
			return fmt.Errorf("-listen and -join must be set together")
		}
		if s.RanksPerProc != 0 {
			return fmt.Errorf("-ranks-per-proc needs a socket world (-listen and -join)")
		}
	} else {
		hosts := len(s.Addrs) - s.Spares
		if hosts < 1 {
			return fmt.Errorf("%d processes leave no rank host beside %d spares", len(s.Addrs), s.Spares)
		}
		if s.Ranks == 0 {
			s.Ranks = hosts * s.RanksPerProc
		}
		if s.RanksPerProc == 0 {
			if s.Ranks%hosts != 0 {
				return fmt.Errorf("%d ranks do not divide over %d processes; set -ranks-per-proc", s.Ranks, hosts)
			}
			s.RanksPerProc = s.Ranks / hosts
		}
		if s.RanksPerProc == 0 || (s.Ranks+s.RanksPerProc-1)/s.RanksPerProc != hosts {
			return fmt.Errorf("%d ranks at %d per process do not fill exactly %d rank-hosting processes",
				s.Ranks, s.RanksPerProc, hosts)
		}
		if s.Listen != "" && s.proc() < 0 {
			return fmt.Errorf("-listen %s does not appear in -join %s", s.Listen, strings.Join(s.Addrs, ","))
		}
		if s.Secret == "" {
			s.Secret = os.Getenv("BFS_WORLD_SECRET")
		}
	}
	if s.Ranks < 1 {
		return fmt.Errorf("a world needs -ranks, or -rows and -cols")
	}
	return nil
}

// proc is this process's index in Addrs, or -1.
func (s *Spec) proc() int {
	for i, a := range s.Addrs {
		if a == s.Listen {
			return i
		}
	}
	return -1
}

// FaultPlan parses Faults; nil when no plan is set.
func (s *Spec) FaultPlan() (*faultinject.Plan, error) {
	if s.Faults == "" {
		return nil, nil
	}
	return faultinject.Parse(s.Faults)
}

// ProcOf is the rank→process map of a validated socket world: RanksPerProc
// consecutive ranks per process, the paper's nodes-per-supernode split.
func (s *Spec) ProcOf() []int { return comm.ContiguousProcOf(s.Ranks, s.RanksPerProc) }

// LoadGraph reads Input, or generates the R-MAT graph, narrating to out.
func (s *Spec) LoadGraph(out io.Writer) (graph500.Graph, error) {
	t0 := time.Now()
	if s.Input == "" {
		fmt.Fprintf(out, "generating SCALE %d graph (%d vertices, %d edges)...\n",
			s.Scale, int64(1)<<uint(s.Scale), int64(16)<<uint(s.Scale))
		g := graph500.Generate(graph500.GenConfig{Scale: s.Scale, Seed: s.Seed})
		fmt.Fprintf(out, "  generated in %v\n", time.Since(t0).Round(time.Millisecond))
		return g, nil
	}
	format, err := edgeio.ParseFormat(s.InFormat)
	if err != nil {
		return graph500.Graph{}, err
	}
	n, edges, err := edgeio.ReadFile(s.Input, format)
	if err != nil {
		return graph500.Graph{}, err
	}
	fmt.Fprintf(out, "loaded %s: %d vertices, %d edges in %v\n",
		s.Input, n, len(edges), time.Since(t0).Round(time.Millisecond))
	return graph500.FromEdges(n, edges), nil
}

// Join binds this process (Listen) into the socket group named by Addrs; it
// returns nil for an in-process world. onReject receives refused handshakes
// (wire.ErrAuth, wire.ErrSealed) and may be nil.
func (s *Spec) Join(onReject func(peer int, err error)) (*comm.Group, error) {
	if len(s.Addrs) == 0 {
		return nil, nil
	}
	proc := s.proc()
	if proc < 0 {
		return nil, fmt.Errorf("-listen %q must name one of the -join addresses", s.Listen)
	}
	return comm.NewGroup(wire.Config{Proc: proc, Addrs: s.Addrs, Secret: s.Secret,
		PeerDeadAfter: s.PeerDead, OnReject: onReject})
}

// Config is the runner configuration of a validated spec; g is Join's
// result. Callers add what only they own (Trace, Drain).
func (s *Spec) Config(g *comm.Group) (graph500.Config, error) {
	cfg := graph500.Config{
		Ranks:        s.Ranks,
		Hierarchical: s.Hierarchical,
		SparseTail:   sparseModes[s.Sparse],
		Recovery:     recoveryModes[s.Recovery],
	}
	if s.Rows > 0 {
		cfg.Mesh = graph500.Mesh{Rows: s.Rows, Cols: s.Cols}
	}
	if s.EThreshold > 0 {
		cfg.Thresholds = graph500.Thresholds{E: s.EThreshold, H: s.HThreshold}
	}
	plan, err := s.FaultPlan()
	if err != nil {
		return cfg, err
	}
	if plan != nil {
		cfg.Transport = plan
		cfg.CollectiveDeadline = s.Deadline
		cfg.MaxRetries = s.MaxRetries
	}
	if s.CheckpointDir != "" {
		cfg.CheckpointDir = s.CheckpointDir
		cfg.CheckpointEvery = s.CheckpointEvery
	}
	if g != nil {
		cfg.Dist = &comm.DistConfig{Group: g, ProcOf: s.ProcOf()}
	}
	return cfg, nil
}

// RunConfig is the report's configuration block for a runner built from the
// spec; the caller adds Roots and Workload.
func (s *Spec) RunConfig(r *graph500.Runner) report.RunConfig {
	g := r.Graph()
	rc := report.RunConfig{
		Scale:        s.Scale,
		EdgeFactor:   16,
		NumVertices:  g.NumVertices,
		NumEdges:     int64(len(g.Edges)),
		Ranks:        r.Engine.Opt.Ranks,
		MeshRows:     r.Engine.Opt.Mesh.Rows,
		MeshCols:     r.Engine.Opt.Mesh.Cols,
		Seed:         s.Seed,
		Direction:    "sub-iteration",
		Hierarchical: s.Hierarchical,
		Faults:       s.Faults,
		Checkpoints:  s.CheckpointDir != "",
	}
	if s.Sparse != "auto" {
		rc.Sparse = s.Sparse // only a non-default policy marks the report
	}
	if s.Input != "" {
		rc.Scale, rc.EdgeFactor = 0, 0
	}
	return rc
}

// WireResilience snapshots the socket group's transport counters for the
// report; nil for an in-process world.
func (s *Spec) WireResilience(g *comm.Group) *report.WireResilience {
	if g == nil {
		return nil
	}
	return &report.WireResilience{Procs: len(s.Addrs), RanksPerProc: s.RanksPerProc, Stats: g.WireStats()}
}

// Decode reads the one JSON value a launcher handed this process (v is a
// Spec, or a struct embedding one). Unknown fields and trailing data are
// errors: a worker that misread its spec must not run with defaults.
func Decode(data string, v any) error {
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("world spec: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("world spec: trailing data after the JSON value")
	}
	return nil
}
