package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the tail percentile for n samples: the highest one
// with at least ten samples beyond it, but never below p90. Below 100
// samples p90 has fewer than ten beyond it; the caller records the count.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.9
	}
	return math.Max(0.9, 1-10/float64(n))
}

// latencyStats adds latency_p50_s and latency_tail_s and notes the tail
// percentile with its sample counts.
func latencyStats(rep *report, lat []float64) {
	q := tailQuantile(len(lat))
	rep.add("latency_p50_s", "s", median(lat), len(lat))
	rep.add("latency_tail_s", "s", quantile(lat, q), len(lat))
	rep.note("latency_tail", map[string]any{
		"percentile": math.Round(q*1000) / 10,
		"samples":    len(lat),
		"beyond":     len(lat) - 1 - int(math.Floor(q*float64(len(lat)-1))),
	})
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
