package graph500

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
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

// OfficialRun executes the full Graph 500 protocol — generation timing is
// supplied by the caller; this runs count validated traversals from sampled
// roots and assembles the official statistics block.
func (r *Runner) OfficialRun(count int, seed uint64, constructionTime time.Duration) (*OfficialStats, error) {
	roots, err := r.SampleRoots(count, seed)
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, count)
	teps := make([]float64, 0, count)
	for _, root := range roots {
		res, err := r.RunValidated(root)
		if err != nil {
			return nil, fmt.Errorf("graph500: root %d: %w", root, err)
		}
		sec := res.Time.Seconds()
		times = append(times, sec)
		teps = append(teps, float64(res.TraversedEdges)/sec)
	}
	st := &OfficialStats{
		NBFSRoots:        count,
		ConstructionTime: constructionTime.Seconds(),
	}
	// Infer scale and edge factor from the graph.
	for int64(1)<<uint(st.Scale) < r.graph.NumVertices {
		st.Scale++
	}
	if r.graph.NumVertices > 0 {
		st.EdgeFactor = int(int64(len(r.graph.Edges)) / r.graph.NumVertices)
	}

	sortedTimes := append([]float64(nil), times...)
	sort.Float64s(sortedTimes)
	st.MinTime = sortedTimes[0]
	st.FirstQuartileTime = quantile(sortedTimes, 0.25)
	st.MedianTime = quantile(sortedTimes, 0.5)
	st.ThirdQuartileTime = quantile(sortedTimes, 0.75)
	st.MaxTime = sortedTimes[len(sortedTimes)-1]
	var sum, sumSq float64
	for _, x := range times {
		sum += x
		sumSq += x * x
	}
	nf := float64(len(times))
	st.MeanTime = sum / nf
	if len(times) > 1 {
		st.StddevTime = sqrtPos((sumSq - sum*sum/nf) / (nf - 1))
	}

	sortedTEPS := append([]float64(nil), teps...)
	sort.Float64s(sortedTEPS)
	st.MinTEPS = sortedTEPS[0]
	st.FirstQuartileTEPS = quantile(sortedTEPS, 0.25)
	st.MedianTEPS = quantile(sortedTEPS, 0.5)
	st.ThirdQuartileTEPS = quantile(sortedTEPS, 0.75)
	st.MaxTEPS = sortedTEPS[len(sortedTEPS)-1]
	// Harmonic mean and its standard deviation, computed over reciprocals
	// as the reference code does.
	var invSum, invSumSq float64
	for _, x := range teps {
		invSum += 1 / x
		invSumSq += (1 / x) * (1 / x)
	}
	st.HarmonicMeanTEPS = nf / invSum
	if len(teps) > 1 {
		invStd := sqrtPos((invSumSq - invSum*invSum/nf) / (nf - 1))
		st.HarmonicStddevTEPS = invStd * st.HarmonicMeanTEPS * st.HarmonicMeanTEPS / sqrtPos(nf)
	}
	return st, nil
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
