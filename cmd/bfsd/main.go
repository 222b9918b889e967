// Command bfsd is the long-lived traversal daemon: it loads (or generates)
// a graph once, partitions it with the 1.5D degree-aware partitioner, keeps
// the partitioned graph resident, and serves BFS queries over HTTP to many
// concurrent clients. A query that finds the engine idle starts its sweep at
// once; queries arriving during a sweep are folded into the next one, ONE
// batched multi-source sweep (one bit-plane per query), amortizing every
// collective, hub sync and kernel launch across the batch.
//
// Usage:
//
//	bfsd -scale 16 -ranks 16 -addr :8080
//	bfsd -input edges.bin -informat bin -ranks 16 -max-batch 16
//	bfsd -scale 18 -ranks 64 -mem-budget 256MiB     # admission from perfmodel
//
// Query it:
//
//	curl -s -X POST localhost:8080/query -d '{"root":42,"op":"distance","target":7}'
//	curl -s localhost:8080/stats      # batch occupancy + latency percentiles
//	curl -s localhost:8080/healthz    # 503 once draining
//
// SIGTERM/SIGINT drains: health flips to 503, queued queries are answered,
// then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	graph500 "repro"
	"repro/internal/bfsd"
	"repro/internal/perfmodel"
	"repro/internal/world"
)

func main() {
	// The graph, mesh, engine and resilience flags are the shared world
	// flags (README "World flags"). bfsd serves an in-process world, so it
	// registers no socket flags.
	spec := world.Default()
	spec.Scale, spec.Ranks = 14, 4
	spec.GraphFlags(flag.CommandLine)
	spec.EngineFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch  = flag.Int("max-batch", 8, "max queries per batched sweep (clamped by -mem-budget)")
		maxQueued = flag.Int("max-queued", 0, "admission bound: queued queries beyond this get 429 (0 = 4*max-batch)")
		memBudget = flag.String("mem-budget", "", "per-rank memory budget for batch state, e.g. 64MiB (empty = no clamp)")
	)
	flag.Parse()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bfsd:", err)
		os.Exit(2)
	}

	g, err := spec.LoadGraph(os.Stdout)
	if err != nil {
		fatal(err)
	}
	cfg, err := spec.Config(nil)
	if err != nil {
		fatal(err)
	}
	if cfg.Transport != nil {
		fmt.Printf("fault injection active: %s\n", cfg.Transport)
	}

	r, err := graph500.New(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioned in %v: %d E hubs, %d H hubs over %d ranks — graph resident\n",
		time.Duration(r.Engine.PartitionSeconds*float64(time.Second)).Round(time.Millisecond),
		r.Engine.Part.Hubs.NumE, r.Engine.Part.Hubs.NumH, r.Engine.Opt.Ranks)

	// Admission sizing: clamp the batch width so every in-flight query's
	// bit-plane state fits the per-rank budget, faulty snapshots included.
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			fatal(err)
		}
		k := int64(r.Engine.Part.Hubs.K())
		per, mesh := r.Engine.Part.Layout.PerRank, r.Engine.Opt.Mesh
		fit := perfmodel.MaxBatchQueries(budget, k, per, mesh, cfg.Transport != nil)
		if fit == 0 {
			fatal(fmt.Errorf("budget %s cannot fit even one batched query (%d bytes/query per rank)",
				*memBudget, perfmodel.BatchQueryBytes(k, per, mesh, cfg.Transport != nil)))
		}
		if fit < *maxBatch {
			fmt.Printf("admission: -mem-budget %s clamps max batch %d -> %d (%d bytes/query per rank)\n",
				*memBudget, *maxBatch, fit, perfmodel.BatchQueryBytes(k, per, mesh, cfg.Transport != nil))
			*maxBatch = fit
		}
	}

	b := bfsd.NewBatcher(r, bfsd.Config{
		MaxBatch:  *maxBatch,
		MaxQueued: *maxQueued,
	})
	srv := bfsd.NewServer(b, g.NumVertices)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// SIGTERM/SIGINT drain: stop admitting, answer the queue, close the
	// listener. Load balancers see /healthz flip to 503 first.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-stop
		fmt.Printf("\n%v: draining (queued queries will be answered)...\n", sig)
		srv.SetDraining()
		b.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()

	fmt.Printf("serving on %s (max batch %d)\n", *addr, *maxBatch)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	st := b.Snapshot()
	fmt.Printf("drained: %d queries over %d batched sweeps (max width %d, max occupancy %.2f)\n",
		st.Queries, st.Batches, st.MaxBatch, st.MaxOccupancy)
}

// parseBytes reads sizes like "64MiB", "256kb", "1g" or raw byte counts.
func parseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"b", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.mult
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsd:", err)
	os.Exit(1)
}
