package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles the tail rule tries, highest first.
var tailLadder = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail is one reported tail percentile.
type tail struct {
	P      float64 // percentile, e.g. 99
	Value  float64
	N      int // samples
	Beyond int // samples ranked above the percentile's sample
}

// percentile returns the nearest-rank p-th percentile of s (sorted
// ascending) and the number of samples ranked above it.
func percentile(s []float64, p float64) (value float64, beyond int) {
	// The small offset keeps p·n/100 from rounding up past an exact rank.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile applies the reporting rule for latency tails: report the
// highest percentile of tailLadder that has at least minBeyond samples
// beyond it. ok is false when not even the lowest rung qualifies; the tail
// is then omitted rather than read off a handful of samples.
func tailPercentile(xs []float64) (t tail, ok bool) {
	if len(xs) == 0 {
		return tail{}, false
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		v, beyond := percentile(s, p)
		if beyond >= minBeyond {
			return tail{P: p, Value: v, N: len(s), Beyond: beyond}, true
		}
	}
	return tail{}, false
}

// geomean is the geometric mean of strictly positive values. The quality
// metrics are aggregated this way so that one large design does not drown
// out the small ones.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean needs positive finite values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// windowRate is a throughput that a burst of interference from other
// tenants of the host moves less than a plain mean would: the completion
// times (seconds from the start of the timed phase, ascending) are cut into
// consecutive windows of w ops, and the median of the windows' rates is
// returned. With fewer than w completions it is the plain rate.
func windowRate(done []float64, w int) float64 {
	n := len(done)
	if n == 0 || done[n-1] <= 0 {
		return 0
	}
	if n < w {
		return float64(n) / done[n-1]
	}
	var rates []float64
	prev := 0.0
	for k := w - 1; k < n; k += w {
		rates = append(rates, float64(w)/(done[k]-prev))
		prev = done[k]
	}
	return median(rates)
}
