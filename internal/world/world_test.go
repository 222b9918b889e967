package world

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	graph500 "repro"
	"repro/internal/core"
	"repro/internal/topology"
)

// launcher mirrors what each binary does before flag.Parse: its defaults on
// top of Default(), then the flag groups it registers.
type launcher struct {
	name   string
	spec   func() Spec
	groups []string
}

var launchers = []launcher{
	{"bfsbench", func() Spec { s := Default(); s.Scale, s.Ranks = 16, 16; return s },
		[]string{"graph", "engine", "socket", "join"}},
	{"bfsrun", func() Spec {
		s := Default()
		s.Scale, s.RanksPerProc, s.Spares, s.Recovery, s.PeerDead = 14, 2, 1, "restore", 2*time.Second
		return s
	}, []string{"graph", "engine", "socket"}},
	{"bfsd", func() Spec { s := Default(); s.Scale, s.Ranks = 14, 4; return s },
		[]string{"graph", "engine"}},
}

var groupFlags = map[string]func(*Spec, *flag.FlagSet){
	"graph": (*Spec).GraphFlags, "engine": (*Spec).EngineFlags,
	"socket": (*Spec).SocketFlags, "join": (*Spec).JoinFlags,
}

// parse runs one launcher's flag registration over args.
func (l launcher) parse(t *testing.T, args ...string) (Spec, error) {
	t.Helper()
	s := l.spec()
	fs := flag.NewFlagSet(l.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, g := range l.groups {
		groupFlags[g](&s, fs)
	}
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	if l.name == "bfsrun" { // the supervisor sizes the group itself: -procs 2 + spares
		s.Addrs = make([]string, 2+s.Spares)
	}
	return s, s.Validate()
}

// smallGraph keeps engine construction cheap: the options under test do not
// depend on the graph.
var smallGraph = graph500.Generate(graph500.GenConfig{Scale: 6, Seed: 1})

// options builds the engine a launcher would build from a validated spec
// (in-process: the socket group plays no part in option resolution) and
// returns the options the engine resolved, reduced to what a Spec decides.
func options(t *testing.T, s Spec) core.Options {
	t.Helper()
	cfg, err := s.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := graph500.New(smallGraph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := r.Engine.Opt
	return core.Options{Ranks: o.Ranks, Mesh: o.Mesh, Thresholds: o.Thresholds,
		Hierarchical: o.Hierarchical, SparseTail: o.SparseTail, Recovery: o.Recovery, CheckpointDir: o.CheckpointDir,
		CheckpointEvery: o.CheckpointEvery, MaxRetries: o.MaxRetries,
		CollectiveDeadline: o.CollectiveDeadline, Transport: o.Transport}
}

func TestFlagsToOptions(t *testing.T) {
	ckpt := t.TempDir()
	// What the engine fills in when a spec leaves it alone.
	base := func(ranks int) core.Options {
		return core.Options{Ranks: ranks, Mesh: topology.SquarestMesh(ranks),
			Thresholds: core.DefaultThresholds(6), CheckpointEvery: 1, MaxRetries: 4}
	}
	with := func(o core.Options, edit func(*core.Options)) core.Options { edit(&o); return o }
	for _, tc := range []struct {
		launcher string
		args     []string
		want     core.Options
		scale    int
	}{
		{"bfsbench", nil, base(16), 16},
		{"bfsrun", nil, with(base(4), func(o *core.Options) { o.Recovery = core.RecoverRestore }), 14},
		{"bfsd", nil, base(4), 14},
		{"bfsbench", []string{"-scale", "12", "-rows", "2", "-cols", "3", "-hierarchical",
			"-sparse", "off", "-ethreshold", "64", "-hthreshold", "8",
			"-checkpoint-dir", ckpt, "-checkpoint-every", "3", "-recovery", "restore"},
			core.Options{Ranks: 6, Mesh: topology.Mesh{Rows: 2, Cols: 3}, Hierarchical: true,
				SparseTail: core.SparseOff, Thresholds: graph500.Thresholds{E: 64, H: 8},
				CheckpointDir: ckpt, CheckpointEvery: 3, Recovery: core.RecoverRestore, MaxRetries: 4}, 12},
		{"bfsd", []string{"-ranks", "8", "-sparse", "always", "-deadline", "5ms"}, // no plan: deadline unused
			with(base(8), func(o *core.Options) { o.SparseTail = core.SparseAlways }), 14},
		{"bfsrun", []string{"-ranks-per-proc", "3", "-recovery", "shrink"}, base(6), 14},
	} {
		t.Run(tc.launcher+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			var l launcher
			for _, c := range launchers {
				if c.name == tc.launcher {
					l = c
				}
			}
			s, err := l.parse(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got := options(t, s); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("options\n got %+v\nwant %+v", got, tc.want)
			}
			if s.Scale != tc.scale || s.Seed != 42 {
				t.Errorf("graph: scale %d seed %d, want %d 42", s.Scale, s.Seed, tc.scale)
			}
		})
	}

	// A fault plan switches the retry knobs on with it.
	s, err := launchers[0].parse(t, "-faults", "seed=3,fail=0.01", "-deadline", "5ms", "-maxretries", "7")
	if err != nil {
		t.Fatal(err)
	}
	opt := options(t, s)
	if opt.Transport == nil || opt.CollectiveDeadline != 5*time.Millisecond || opt.MaxRetries != 7 {
		t.Errorf("fault plan options: %+v", opt)
	}
}

func TestValidateRejects(t *testing.T) {
	join := "a,b"
	for _, tc := range []struct {
		launcher int
		args     []string
		want     string
	}{
		{1, []string{"-ranks-per-proc", "0"}, "do not fill"}, // was an integer divide by zero
		{1, []string{"-ranks-per-proc", "-1"}, "negative"},
		{1, []string{"-ranks", "5"}, "do not fill"},
		{0, []string{"-rows", "2"}, "-rows and -cols"},
		{0, []string{"-cols", "2"}, "-rows and -cols"},
		{0, []string{"-rows", "-2", "-cols", "-2"}, "-rows and -cols"},
		{0, []string{"-ethreshold", "64"}, "-ethreshold and -hthreshold"},
		{0, []string{"-hthreshold", "8"}, "-ethreshold and -hthreshold"},
		{0, []string{"-sparse", "sometimes"}, "-sparse"},
		{0, []string{"-recovery", "pray"}, "-recovery"},
		{0, []string{"-faults", "kill@nowhere"}, "faultinject"},
		{0, []string{"-input", "x", "-informat", "xml"}, "format"},
		{0, []string{"-ranks", "0"}, "needs -ranks"},
		{0, []string{"-listen", "a"}, "-listen and -join"},
		{0, []string{"-ranks-per-proc", "2"}, "socket world"},
		{0, []string{"-listen", "c", "-join", join}, "does not appear"},
		{0, []string{"-ranks", "5", "-listen", "a", "-join", join}, "do not divide"},
		{0, []string{"-ranks", "16", "-ranks-per-proc", "4", "-listen", "a", "-join", join}, "do not fill"},
		{0, []string{"-rows", "2", "-cols", "2", "-ranks-per-proc", "4", "-listen", "a", "-join", join}, "do not fill"},
	} {
		_, err := launchers[tc.launcher].parse(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: error %v, want one containing %q", launchers[tc.launcher].name, tc.args, err, tc.want)
		}
	}
}

// TestProcOfAgreesWithMesh: the process map covers exactly the ranks the
// engine's mesh will have, every rank-hosting process hosts some, and no
// rank lands on a spare — including when -rows/-cols override -ranks (the
// case that used to build a 16-rank map for a 4-rank mesh).
func TestProcOfAgreesWithMesh(t *testing.T) {
	for _, tc := range []struct {
		ranks, rows, cols, procs, spares, rpp int
		wantRanks, wantRPP                    int
	}{
		{ranks: 4, procs: 2, wantRanks: 4, wantRPP: 2},
		{ranks: 16, rows: 2, cols: 2, procs: 2, wantRanks: 4, wantRPP: 2},
		{ranks: 6, procs: 3, spares: 2, rpp: 2, wantRanks: 6, wantRPP: 2},
		{ranks: 0, procs: 3, spares: 1, rpp: 2, wantRanks: 6, wantRPP: 2},
		{ranks: 5, procs: 3, rpp: 2, wantRanks: 5, wantRPP: 2}, // ragged last process
		{ranks: 0, rows: 3, cols: 2, procs: 2, spares: 1, wantRanks: 6, wantRPP: 3},
		{ranks: 8, procs: 1, wantRanks: 8, wantRPP: 8},
	} {
		s := Default()
		s.Ranks, s.Rows, s.Cols, s.RanksPerProc, s.Spares = tc.ranks, tc.rows, tc.cols, tc.rpp, tc.spares
		s.Addrs = make([]string, tc.procs+tc.spares)
		for i := range s.Addrs {
			s.Addrs[i] = fmt.Sprintf("unix:/w%d", i)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", tc, err)
			continue
		}
		mesh := options(t, s).Mesh
		procOf := s.ProcOf()
		if s.Ranks != tc.wantRanks || s.RanksPerProc != tc.wantRPP || len(procOf) != mesh.Size() {
			t.Errorf("%+v: ranks %d rpp %d map over %d ranks, mesh %v", tc, s.Ranks, s.RanksPerProc, len(procOf), mesh)
		}
		hosted := make([]int, len(s.Addrs))
		for _, p := range procOf {
			hosted[p]++
		}
		for p, n := range hosted {
			if (p < tc.procs) != (n > 0) {
				t.Errorf("%+v: process %d hosts %d ranks (map %v)", tc, p, n, procOf)
			}
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Default()
	s.Scale, s.Ranks, s.RanksPerProc, s.Spares = 10, 6, 2, 2
	s.Faults = "sigkill@proc=0,iter=3,sigkill@proc=1,iter=1"
	s.Secret = `pass "word" with, separators=and spaces`
	s.Addrs = []string{"unix:/a", "unix:/b", "unix:/c", "unix:/d", "unix:/e"}
	s.Listen, s.PeerDead, s.CheckpointDir = "unix:/b", time.Second, "/shared/ckpt"
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// As cmd/bfsrun does: the spec rides inside a larger worker document.
	type doc struct {
		Spec
		Roots int
	}
	data, err := json.Marshal(doc{s, 3})
	if err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := Decode(string(data), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc{s, 3}) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, doc{s, 3})
	}
	plan, err := got.FaultPlan()
	if err != nil || plan == nil || !plan.SigKillFor(1, 1) || plan.SigKillFor(2, 1) {
		t.Fatalf("fault plan lost in transit: %v %v", plan, err)
	}
	for _, bad := range []string{``, `{"Scale":"ten"}`, `{"Scael":10}`, string(data) + `{}`} {
		if err := Decode(bad, &got); err == nil {
			t.Errorf("Decode(%q) accepted", bad)
		}
	}
}

func TestSecretFromEnvironment(t *testing.T) {
	t.Setenv("BFS_WORLD_SECRET", "from-env")
	s, err := launchers[0].parse(t, "-ranks", "4", "-listen", "a", "-join", "a,b")
	if err != nil || s.Secret != "from-env" {
		t.Fatalf("secret %q, err %v", s.Secret, err)
	}
	s, err = launchers[0].parse(t, "-ranks", "4", "-listen", "a", "-join", "a,b", "-secret", "flag")
	if err != nil || s.Secret != "flag" {
		t.Fatalf("flag did not win: secret %q, err %v", s.Secret, err)
	}
}

// TestREADMEFlagTable keeps the README's "World flags" table generated from
// the registrations: one row per shared flag, with the binaries that take it.
// Regenerate with UPDATE_README=1 go test ./internal/world -run FlagTable.
func TestREADMEFlagTable(t *testing.T) {
	const begin, end = "<!-- world-flags:begin -->\n", "<!-- world-flags:end -->\n"
	var b strings.Builder
	b.WriteString("| flag | bfsbench | bfsrun | bfsd | meaning |\n|---|---|---|---|---|\n")
	for _, g := range []string{"graph", "engine", "socket", "join"} {
		s := Default()
		fs := flag.NewFlagSet(g, flag.ContinueOnError)
		groupFlags[g](&s, fs)
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(&b, "| `-%s` |", f.Name)
			for _, l := range launchers {
				cell := " |"
				for _, lg := range l.groups {
					if lg == g {
						ls := l.spec()
						lfs := flag.NewFlagSet(l.name, flag.ContinueOnError)
						groupFlags[g](&ls, lfs)
						cell = fmt.Sprintf(" `%s` |", lfs.Lookup(f.Name).DefValue)
						if lfs.Lookup(f.Name).DefValue == "" {
							cell = " `\"\"` |"
						}
					}
				}
				b.WriteString(cell)
			}
			fmt.Fprintf(&b, " %s |\n", strings.ReplaceAll(f.Usage, "|", "\\|"))
		})
	}
	const path = "../../README.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %q ... %q markers", begin, end)
	}
	if os.Getenv("UPDATE_README") != "" {
		readme = readme[:i+len(begin)] + b.String() + readme[j:]
		if err := os.WriteFile(path, []byte(readme), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := readme[i+len(begin) : j]; got != b.String() {
		t.Errorf("README.md world-flags table is stale (UPDATE_README=1 regenerates it):\n%s", b.String())
	}
}
