package graph500

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// OfficialStats mirrors the output block the Graph 500 reference code prints
// after a benchmark run: order statistics over the per-root times and TEPS
// rates, plus construction metadata. The spec reports the harmonic mean of
// TEPS with its harmonic standard deviation; quartiles interpolate linearly
// between order statistics, as the reference code does.
type OfficialStats struct {
	Scale            int
	EdgeFactor       int
	NBFSRoots        int
	ConstructionTime float64 // seconds

	MinTime, FirstQuartileTime, MedianTime, ThirdQuartileTime, MaxTime float64
	MeanTime, StddevTime                                               float64

	MinTEPS, FirstQuartileTEPS, MedianTEPS, ThirdQuartileTEPS, MaxTEPS float64
	HarmonicMeanTEPS, HarmonicStddevTEPS                               float64
}

// quantile returns the p-quantile (0..1) of sorted xs by linear
// interpolation, the convention of the Graph 500 reference statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Official assembles the official statistics block from a benchmark summary
// of this runner's graph (at least one root); constructionSeconds is the
// graph construction (Kernel 1) time the block reports.
func (r *Runner) Official(sum *BenchmarkSummary, constructionSeconds float64) *OfficialStats {
	st := &OfficialStats{
		NBFSRoots:        len(sum.Roots),
		ConstructionTime: constructionSeconds,
		MeanTime:         sum.MeanSeconds,
		HarmonicMeanTEPS: sum.HarmonicTEPS,
	}
	// Infer scale and edge factor from the graph.
	for int64(1)<<uint(st.Scale) < r.graph.NumVertices {
		st.Scale++
	}
	if r.graph.NumVertices > 0 {
		st.EdgeFactor = int(int64(len(r.graph.Edges)) / r.graph.NumVertices)
	}
	order := func(xs []float64) (lo, q1, med, q3, hi float64) {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[0], quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[len(s)-1]
	}
	st.MinTime, st.FirstQuartileTime, st.MedianTime, st.ThirdQuartileTime, st.MaxTime = order(sum.Seconds)
	st.MinTEPS, st.FirstQuartileTEPS, st.MedianTEPS, st.ThirdQuartileTEPS, st.MaxTEPS = order(sum.TEPS)

	st.StddevTime = sampleStddev(sum.Seconds)
	// The harmonic standard deviation is computed over reciprocals, as the
	// reference code does.
	inv := make([]float64, len(sum.TEPS))
	for i, x := range sum.TEPS {
		inv[i] = 1 / x
	}
	st.HarmonicStddevTEPS = sampleStddev(inv) * st.HarmonicMeanTEPS * st.HarmonicMeanTEPS / sqrtPos(float64(len(inv)))
	return st
}

// sampleStddev is the sample standard deviation of xs (0 below two samples).
func sampleStddev(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	return sqrtPos((sumSq - sum*sum/n) / (n - 1))
}

func sqrtPos(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// String renders the block in the reference code's key-colon-value format.
func (st *OfficialStats) String() string {
	var b strings.Builder
	p := func(k string, v any) { fmt.Fprintf(&b, "%s: %v\n", k, v) }
	p("SCALE", st.Scale)
	p("edgefactor", st.EdgeFactor)
	p("NBFS", st.NBFSRoots)
	p("construction_time", fmt.Sprintf("%.6g", st.ConstructionTime))
	p("min_time", fmt.Sprintf("%.6g", st.MinTime))
	p("firstquartile_time", fmt.Sprintf("%.6g", st.FirstQuartileTime))
	p("median_time", fmt.Sprintf("%.6g", st.MedianTime))
	p("thirdquartile_time", fmt.Sprintf("%.6g", st.ThirdQuartileTime))
	p("max_time", fmt.Sprintf("%.6g", st.MaxTime))
	p("mean_time", fmt.Sprintf("%.6g", st.MeanTime))
	p("stddev_time", fmt.Sprintf("%.6g", st.StddevTime))
	p("min_TEPS", fmt.Sprintf("%.6g", st.MinTEPS))
	p("firstquartile_TEPS", fmt.Sprintf("%.6g", st.FirstQuartileTEPS))
	p("median_TEPS", fmt.Sprintf("%.6g", st.MedianTEPS))
	p("thirdquartile_TEPS", fmt.Sprintf("%.6g", st.ThirdQuartileTEPS))
	p("max_TEPS", fmt.Sprintf("%.6g", st.MaxTEPS))
	p("harmonic_mean_TEPS", fmt.Sprintf("%.6g", st.HarmonicMeanTEPS))
	p("harmonic_stddev_TEPS", fmt.Sprintf("%.6g", st.HarmonicStddevTEPS))
	return b.String()
}
