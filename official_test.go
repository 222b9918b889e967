package graph500

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestOfficialRunStatistics(t *testing.T) {
	g := Generate(GenConfig{Scale: 10, Seed: 31})
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Benchmark(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Official(sum, 0.123)
	if st.Scale != 10 || st.EdgeFactor != 16 || st.NBFSRoots != 8 {
		t.Fatalf("metadata wrong: %+v", st)
	}
	if math.Abs(st.ConstructionTime-0.123) > 1e-9 {
		t.Fatalf("construction time %g", st.ConstructionTime)
	}
	// Order statistics must be ordered.
	if !(st.MinTime <= st.FirstQuartileTime && st.FirstQuartileTime <= st.MedianTime &&
		st.MedianTime <= st.ThirdQuartileTime && st.ThirdQuartileTime <= st.MaxTime) {
		t.Fatalf("time quantiles unordered: %+v", st)
	}
	if !(st.MinTEPS <= st.FirstQuartileTEPS && st.FirstQuartileTEPS <= st.MedianTEPS &&
		st.MedianTEPS <= st.ThirdQuartileTEPS && st.ThirdQuartileTEPS <= st.MaxTEPS) {
		t.Fatalf("TEPS quantiles unordered: %+v", st)
	}
	// Harmonic mean below arithmetic mean of TEPS (AM-HM inequality) and
	// within [min, max].
	if st.HarmonicMeanTEPS < st.MinTEPS || st.HarmonicMeanTEPS > st.MaxTEPS {
		t.Fatalf("harmonic mean %g outside [%g, %g]", st.HarmonicMeanTEPS, st.MinTEPS, st.MaxTEPS)
	}
	if st.StddevTime < 0 || st.HarmonicStddevTEPS < 0 {
		t.Fatal("negative deviation")
	}
}

// TestOfficialMatchesSummary: the official block and the report read one
// summary, so over the same roots they agree on the root count and the
// harmonic mean, and its order statistics and deviations are those of the
// summary's per-root samples.
func TestOfficialMatchesSummary(t *testing.T) {
	g := Generate(GenConfig{Scale: 10, Seed: 33})
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Benchmark(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Official(sum, 0)
	if st.NBFSRoots != len(sum.Roots) || st.NBFSRoots != 5 {
		t.Fatalf("NBFS %d, summary holds %d roots, want 5", st.NBFSRoots, len(sum.Roots))
	}
	if st.HarmonicMeanTEPS != sum.HarmonicTEPS {
		t.Fatalf("harmonic mean TEPS %g, summary %g", st.HarmonicMeanTEPS, sum.HarmonicTEPS)
	}
	if st.MinTEPS != sum.MinTEPS || st.MaxTEPS != sum.MaxTEPS || st.MeanTime != sum.MeanSeconds {
		t.Fatalf("official %+v disagrees with summary %+v", st, sum)
	}
	if got := sum.WorkloadEntry().GTEPS; got != st.HarmonicMeanTEPS/1e9 {
		t.Fatalf("report bfs row %g GTEPS, official block %g TEPS", got, st.HarmonicMeanTEPS)
	}
}

// TestOfficialStatisticsKnownSamples pins the block's arithmetic on runs
// with known times and rates: linearly interpolated quartiles, the sample
// standard deviation of the times, and the harmonic mean of the rates with
// its standard deviation taken over their reciprocals.
func TestOfficialStatisticsKnownSamples(t *testing.T) {
	r := &Runner{graph: Graph{NumVertices: 1 << 5, Edges: make([]Edge, 16<<5)}}
	var sum BenchmarkSummary
	// Four runs of 1, 2, 4 and 4 s traversing 1, 4, 16 and 16 edges: rates
	// of 1, 2, 4 and 4 TEPS.
	for i, sec := range []int64{1, 2, 4, 4} {
		sum.Add(int64(i), &Result{TraversedEdges: sec * sec,
			RunRecord: core.RunRecord{Time: time.Duration(sec) * time.Second, Recorder: &stats.Recorder{}}})
	}
	st := r.Official(&sum, 1)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %.15g, want %.15g", name, got, want)
		}
	}
	if st.Scale != 5 || st.EdgeFactor != 16 || st.NBFSRoots != 4 {
		t.Fatalf("metadata wrong: %+v", st)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"min_time", st.MinTime, 1}, {"firstquartile_time", st.FirstQuartileTime, 1.75},
		{"median_time", st.MedianTime, 3}, {"thirdquartile_time", st.ThirdQuartileTime, 4},
		{"max_time", st.MaxTime, 4}, {"mean_time", st.MeanTime, 2.75},
		{"stddev_time", st.StddevTime, math.Sqrt(2.25)},
		{"min_TEPS", st.MinTEPS, 1}, {"median_TEPS", st.MedianTEPS, 3}, {"max_TEPS", st.MaxTEPS, 4},
		// n / sum(1/x) = 4 / (1 + 1/2 + 1/4 + 1/4) = 2.
		{"harmonic_mean_TEPS", st.HarmonicMeanTEPS, 2},
		// Reciprocals 1, 1/2, 1/4, 1/4 have sample variance 1/8; the
		// deviation scales by hm^2/sqrt(n) = 2.
		{"harmonic_stddev_TEPS", st.HarmonicStddevTEPS, math.Sqrt(0.125) * 2},
	} {
		near(c.name, c.got, c.want)
	}
}

func TestOfficialOutputFormat(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 32})
	r, err := New(g, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Benchmark(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Official(sum, 1)
	out := st.String()
	for _, key := range []string{
		"SCALE:", "edgefactor:", "NBFS:", "construction_time:",
		"min_time:", "firstquartile_time:", "median_time:", "thirdquartile_time:", "max_time:",
		"mean_time:", "stddev_time:",
		"min_TEPS:", "harmonic_mean_TEPS:", "harmonic_stddev_TEPS:",
	} {
		if !strings.Contains(out, key) {
			t.Fatalf("official output missing %q:\n%s", key, out)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if quantile([]float64{7}, 0.99) != 7 {
		t.Fatal("single-element quantile")
	}
}

func TestSqrtPos(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 1e-12, 1e12, 1e-24, 1e-26, 1e24} {
		got := sqrtPos(x)
		if math.Abs(got-math.Sqrt(x)) > 1e-9*math.Sqrt(x) {
			t.Fatalf("sqrtPos(%g) = %g, want %g", x, got, math.Sqrt(x))
		}
	}
	if sqrtPos(-1) != 0 {
		t.Fatal("negative input should clamp to 0")
	}
}
