// Command benchmark is the repository's one performance harness: four named
// workloads that each stress a different layer, end-to-end metrics measured
// with tracing off, and a traced run that attributes time to layers. It
// measures the program from outside — by timing calls into public functions,
// reading the counters the program already exports, and wrapping the engine's
// own spans in harness spans — and changes no code it measures.
//
//	go run ./benchmark -seed 42                 # every workload, untraced
//	go run ./benchmark -workload g500-socket-s16 -seconds 15
//	go run ./benchmark -trace 1                 # traced runs, per-layer tables
//	go run ./benchmark -layers                  # layer microbenchmarks
//	go run ./benchmark -selfcheck               # two full sets, compared
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 15

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
		layers    = flag.Bool("layers", false, "run the layer microbenchmarks and exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if a gated median moves by more than its bound")
		jsonOut   = flag.String("json", "", "also write the full results (every metric, roots, environment) to this file")
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all of "+strings.Join(workloadNames(), ", ")+")")
	flag.Uint64Var(&cfg.seed, "seed", 42, "drives the R-MAT seed, the root sample and the arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "seconds one run measures")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test shape: SCALE 10 everywhere")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the traced run writes its span files to")
	flag.Parse()
	cfg.trace = *trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; see -help")
		os.Exit(2)
	}

	var err error
	switch {
	case *layers:
		err = writeFull(*jsonOut, &fullOutput{Env: environment(), Layers: runLayers(os.Stdout, cfg.quick)})
	case *selfcheck:
		err = runSelfcheck(os.Stdout, cfg)
	case cfg.workload != "":
		err = runOne(os.Stdout, cfg, *jsonOut)
	default:
		err = runAll(os.Stdout, cfg, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process and prints the contract's
// result object as the last line of standard output. A run whose outputs
// were wrong still prints its result (correct=false) but exits non-zero.
func runOne(w io.Writer, cfg config, jsonOut string) error {
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	if err := writeFull(jsonOut, &fullOutput{Env: environment(), Results: []*result{res}}); err != nil {
		return err
	}
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return firstIncorrect(res)
}

// firstIncorrect turns a run with failed or wrong operations into an error.
func firstIncorrect(results ...*result) error {
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or returned a wrong result", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runAll runs every workload, each in a child process of its own so that
// peak RSS, GC state and leaked resources of one cannot colour the next.
func runAll(w io.Writer, cfg config, jsonOut string) error {
	results, err := runSet(w, cfg)
	if err != nil {
		return err
	}
	printSummary(w, results)
	if err := writeFull(jsonOut, &fullOutput{Env: environment(), Results: results}); err != nil {
		return err
	}
	return firstIncorrect(results...)
}

// runSet re-executes this binary once per workload and collects the full
// result each child writes.
func runSet(w io.Writer, cfg config) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "bench-set-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var results []*result
	for _, name := range workloadNames() {
		full := fmt.Sprintf("%s/%s.json", tmp, name)
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-out", cfg.outDir, "-json", full}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		runErr := cmd.Run()
		out, err := readFull(full)
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", name, runErr)
			}
			return nil, err
		}
		results = append(results, out.Results...)
	}
	return results, nil
}

// fullOutput is the -json document: everything a later issue needs to quote
// a parent number — every metric, the sampled roots, and the machine.
type fullOutput struct {
	Env     map[string]string `json:"environment"`
	Results []*result         `json:"results,omitempty"`
	Layers  []metric          `json:"layers,omitempty"`
}

func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

func writeFull(path string, out *fullOutput) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readFull(path string) (*fullOutput, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out fullOutput
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}
