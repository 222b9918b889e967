package bfsd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestServerConcurrentQueries is the in-process smoke: concurrent HTTP
// clients against a resident engine must get correct parent / reach /
// distance answers, and the concurrency must actually batch (occupancy > 1
// on at least one sweep, visible in /stats).
func TestServerConcurrentQueries(t *testing.T) {
	eng := testEngine(t)
	n := int64(len(eng.Part.Degrees))
	roots := connectedRoots(eng, 8)
	solo := make(map[int64][]int64, len(roots))
	for _, root := range roots {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		solo[root] = res.Parent
	}

	b := NewBatcher(eng, Config{Window: 3 * time.Millisecond, MaxBatch: 8, MaxQueued: 256})
	defer b.Close()
	srv := NewServer(b, n)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*QueryResponse, int, error) {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode, nil
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return nil, resp.StatusCode, err
		}
		return &qr, resp.StatusCode, nil
	}

	// Concurrent clients across every op.
	const waves = 4
	var wg sync.WaitGroup
	errCh := make(chan error, waves*len(roots))
	for w := 0; w < waves; w++ {
		for ri, root := range roots {
			root := root
			op := []string{OpParents, OpReach, OpDistance, OpParent}[(w+ri)%4]
			wg.Add(1)
			go func() {
				defer wg.Done()
				target := (root + 1) % n
				body := fmt.Sprintf(`{"root":%d,"op":%q,"target":%d}`, root, op, target)
				if op == OpParents {
					body = fmt.Sprintf(`{"root":%d,"op":"parents"}`, root)
				}
				qr, code, err := post(body)
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("op %s root %d: status %d", op, root, code)
					return
				}
				want := solo[root]
				switch op {
				case OpParents:
					for v := range want {
						if qr.Parents[v] != want[v] {
							errCh <- fmt.Errorf("root %d parents[%d] = %d, solo %d", root, v, qr.Parents[v], want[v])
							return
						}
					}
				case OpParent:
					if qr.Parent == nil || *qr.Parent != want[target] {
						errCh <- fmt.Errorf("root %d parent(%d) = %v, solo %d", root, target, qr.Parent, want[target])
					}
				case OpReach:
					if qr.Reachable == nil || *qr.Reachable != (want[target] >= 0) {
						errCh <- fmt.Errorf("root %d reach(%d) = %v, solo %v", root, target, qr.Reachable, want[target] >= 0)
					}
				case OpDistance:
					lvl, lerr := graph.Levels(want, root)
					if lerr != nil {
						errCh <- lerr
						return
					}
					if qr.Distance == nil || *qr.Distance != lvl[target] {
						errCh <- fmt.Errorf("root %d distance(%d) = %v, solo level %d", root, target, qr.Distance, lvl[target])
					}
				}
			}()
		}
		// Let windows roll over between waves so batches span boundaries.
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The smoke claim: concurrency actually batched.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br struct {
		Batches       int64   `json:"batches"`
		Queries       int64   `json:"queries"`
		MaxBatch      int     `json:"max_batch"`
		MaxOccupancy  float64 `json:"max_occupancy"`
		MeanOccupancy float64 `json:"mean_occupancy"`
		LatencyP50    float64 `json:"latency_p50_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Queries != waves*int64(len(roots)) {
		t.Fatalf("stats saw %d queries, want %d", br.Queries, waves*len(roots))
	}
	if br.MaxOccupancy <= 1 {
		t.Fatalf("max occupancy %v, want > 1 (no batching happened)", br.MaxOccupancy)
	}
	if br.LatencyP50 <= 0 {
		t.Fatalf("latency percentiles missing: %+v", br)
	}
}

func TestServerRequestValidation(t *testing.T) {
	eng := testEngine(t)
	n := int64(len(eng.Part.Degrees))
	b := NewBatcher(eng, Config{})
	defer b.Close()
	ts := httptest.NewServer(NewServer(b, n).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"root":1,"op":"frobnicate"}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"root":%d,"op":"parents"}`, n), http.StatusBadRequest},
		{fmt.Sprintf(`{"root":0,"op":"reach","target":%d}`, n), http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	// GET on /query is refused.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d", resp.StatusCode)
	}
}

func TestServerDrain(t *testing.T) {
	eng := testEngine(t)
	n := int64(len(eng.Part.Degrees))
	b := NewBatcher(eng, Config{})
	srv := NewServer(b, n)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthy /healthz: %d", got)
	}
	srv.SetDraining()
	b.Close()
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: %d", got)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"root":0,"op":"parents"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /query: %d, want 503", resp.StatusCode)
	}
}

func TestStatsLatencies(t *testing.T) {
	var b StatsBlock
	b.setLatencies(nil) // no samples: all fields stay zero
	if b.LatencyMaxSeconds != 0 {
		t.Fatal("empty sample set moved the percentiles")
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100-i) * 0.001 // 0.001..0.100, reversed
	}
	b.setLatencies(samples)
	if b.LatencyP50Seconds != 0.050 || b.LatencyP90Seconds != 0.090 ||
		b.LatencyP99Seconds != 0.099 || b.LatencyMaxSeconds != 0.100 {
		t.Fatalf("percentiles: %+v", b)
	}
	if samples[0] != 0.100 {
		t.Fatal("setLatencies mutated its input")
	}
	one := StatsBlock{}
	one.setLatencies([]float64{0.25})
	if one.LatencyP50Seconds != 0.25 || one.LatencyMaxSeconds != 0.25 {
		t.Fatalf("single sample: %+v", one)
	}
}
