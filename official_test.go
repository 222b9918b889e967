package graph500

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestOfficialRunStatistics(t *testing.T) {
	g := Generate(GenConfig{Scale: 10, Seed: 31})
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.OfficialRun(8, 3, 123*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
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

func TestOfficialOutputFormat(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 32})
	r, err := New(g, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.OfficialRun(4, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
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
