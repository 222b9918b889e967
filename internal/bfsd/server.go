package bfsd

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// Server is the HTTP front end: POST /query against the batcher, GET
// /healthz for liveness, GET /stats for the service-level batch block.
type Server struct {
	b *Batcher
	// n is the vertex-id bound for request validation.
	n int64
	// draining flips when the daemon starts its SIGTERM drain: /healthz goes
	// 503 so load balancers stop routing, while in-flight queries finish.
	draining atomic.Bool
}

// NewServer wires the batcher behind the HTTP API. n is the graph's vertex
// count (root/target bound).
func NewServer(b *Batcher, n int64) *Server {
	return &Server{b: b, n: n}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// SetDraining marks the server as draining (health goes 503; queries still
// drain through the batcher until it closes).
func (s *Server) SetDraining() { s.draining.Store(true) }

// QueryResponse is the answer document for POST /query. Fields irrelevant
// to the op are omitted.
type QueryResponse struct {
	Root int64  `json:"root"`
	Op   string `json:"op"`

	Parent    *int64  `json:"parent,omitempty"`    // op=parent
	Parents   []int64 `json:"parents,omitempty"`   // op=parents
	Reachable *bool   `json:"reachable,omitempty"` // op=reach
	Distance  *int64  `json:"distance,omitempty"`  // op=distance

	// Iterations is the depth at which the answer was fixed: the tree's
	// depth for op=parents; otherwise the target's level when it is
	// reached, the depth of the root's component when it is not, and 0
	// when no sweep was needed (the target is the root or has no edge).
	Iterations int64 `json:"iterations"`

	// Batch context: how the query was served.
	BatchSize      int     `json:"batch_size"`
	Occupancy      float64 `json:"occupancy"`
	LatencySeconds float64 `json:"latency_seconds"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q, err := DecodeQueryRequest(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Root >= s.n {
		http.Error(w, "root out of range", http.StatusBadRequest)
		return
	}
	if q.hasTarget && q.Target >= s.n {
		http.Error(w, "target out of range", http.StatusBadRequest)
		return
	}
	key := q.Root // op=parents: the full tree
	if q.Op != OpParents {
		key = core.Query{Root: q.Root, Target: q.Target}.Key()
	}
	out, err := s.b.Submit(r.Context(), key)
	switch {
	case errors.Is(err, ErrBusy):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	res := out.Query
	resp := QueryResponse{
		Root: q.Root, Op: q.Op,
		Iterations:     int64(res.Iterations),
		BatchSize:      out.BatchSize,
		Occupancy:      out.Occupancy,
		LatencySeconds: out.Latency.Seconds(),
	}
	switch q.Op {
	case OpParent:
		resp.Parent = &res.TargetParent
	case OpParents:
		resp.Parents = res.Parent
	case OpReach:
		reach := res.TargetParent >= 0
		resp.Reachable = &reach
	case OpDistance:
		resp.Distance = &res.TargetLevel
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.StatsBlock())
}

// StatsBlock is the GET /stats document: sweep occupancy (live queries per
// iteration — MaxBatch at full amortization, 1.0 when batching bought
// nothing) and per-query latency percentiles as the service sees them.
type StatsBlock struct {
	Batches       int64   `json:"batches"`
	Queries       int64   `json:"queries"`
	MaxBatch      int     `json:"max_batch"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	MaxOccupancy  float64 `json:"max_occupancy"`

	LatencyP50Seconds float64 `json:"latency_p50_seconds"`
	LatencyP90Seconds float64 `json:"latency_p90_seconds"`
	LatencyP99Seconds float64 `json:"latency_p99_seconds"`
	LatencyMaxSeconds float64 `json:"latency_max_seconds"`
}

// StatsBlock renders the batcher's service-level stats.
func (s *Server) StatsBlock() *StatsBlock {
	st := s.b.Snapshot()
	sb := &StatsBlock{
		Batches:      st.Batches,
		Queries:      st.Queries,
		MaxBatch:     st.MaxBatch,
		MaxOccupancy: st.MaxOccupancy,
	}
	if st.Batches > 0 {
		sb.MeanOccupancy = st.OccupancySum / float64(st.Batches)
	}
	sb.setLatencies(st.Latencies)
	return sb
}

// setLatencies fills the latency percentile fields from per-query latencies
// in seconds (order irrelevant; the slice is not modified). Percentiles use
// the nearest-rank method on the sorted samples.
func (b *StatsBlock) setLatencies(seconds []float64) {
	if len(seconds) == 0 {
		return
	}
	s := append([]float64(nil), seconds...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	b.LatencyP50Seconds = rank(0.50)
	b.LatencyP90Seconds = rank(0.90)
	b.LatencyP99Seconds = rank(0.99)
	b.LatencyMaxSeconds = s[len(s)-1]
}
