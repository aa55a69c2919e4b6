package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// samples is one series of measurements (latencies in ms unless noted).
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of an ascending series
// (0 for an empty one).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// trimmedMean is the mean of v without its lowest and highest fifth.
func trimmedMean(v []float64) float64 {
	s := samples(v).sorted()
	k := len(s) / 5
	return s[k : len(s)-k].mean()
}

// The machine's CPU and disk are shared, and their speed swings by up to
// half within seconds. A slow stretch only ever lowers a cluster's
// throughput and adds to its latency, and over every cluster it moved
// the p99 by a third and the throughput by a sixth from run to run. So
// the live workloads take both from the calmer half of a run's
// clusters: that gives the program's own figures, and a change to the
// program moves every cluster.

// fastHalfMean is the mean of the higher half of v.
func fastHalfMean(v []float64) float64 {
	s := samples(v).sorted()
	return s[len(s)/2:].mean()
}

// calmP99 is the p99 of the ops pooled over the half of the clusters
// with the lowest p99 of their own, and how many ops that pools.
func calmP99(clusters []samples) (p99 float64, n int) {
	byP99 := slices.Clone(clusters)
	slices.SortStableFunc(byP99, func(a, b samples) int { return cmp.Compare(a.quantile(0.99), b.quantile(0.99)) })
	var calm samples
	for _, c := range byP99[:(len(byP99)+1)/2] {
		calm = append(calm, c...)
	}
	calm = calm.sorted()
	return calm.quantile(0.99), len(calm)
}

// clusterP99s is each cluster's own p99, for the report.
func clusterP99s(clusters []samples) []float64 {
	out := make([]float64, len(clusters))
	for i, c := range clusters {
		out[i] = c.quantile(0.99)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timingLines reports one op type's latency as <name>_p50_ms and
// <name>_p99_ms with the sample count; when the p99 has fewer than ten
// samples beyond it, the line also gives the highest percentile that
// has.
func timingLines(name string, s samples) []string {
	s = s.sorted()
	n := len(s)
	p99 := fmt.Sprintf("%s_p99_ms %.3f ms (n=%d)", name, s.quantile(0.99), n)
	if n > 10 && n < 1000 {
		q := math.Floor(1000*(1-10/float64(n))) / 1000
		p99 += fmt.Sprintf("; under ten samples beyond it, p%g = %.3f ms has ten", 100*q, s.quantile(q))
	}
	return []string{fmt.Sprintf("%s_p50_ms %.3f ms (n=%d)", name, s.quantile(0.5), n), p99}
}
