package main

import (
	"slices"
	"time"
)

// tailLadder lists the percentiles the tail rule chooses from, as parts
// per million of samples lying beyond them: p50, p90, p99, p99.9,
// p99.99, p99.999.
var tailLadder = []struct {
	name string
	ppm  int64
}{
	{"p50", 500_000},
	{"p90", 100_000},
	{"p99", 10_000},
	{"p99.9", 1_000},
	{"p99.99", 100},
	{"p99.999", 10},
}

// tailBeyond is the number of samples the tail percentile must leave
// beyond itself.
const tailBeyond = 10

// tailRule picks the highest percentile of the ladder that has at least
// tailBeyond samples beyond it among n samples. Below 2×tailBeyond
// samples no percentile qualifies and the median is used. It returns the
// percentile's name and its parts per million beyond.
func tailRule(n int) (string, int64) {
	name, ppm := tailLadder[0].name, tailLadder[0].ppm
	for _, p := range tailLadder {
		if int64(n)*p.ppm >= tailBeyond*1_000_000 {
			name, ppm = p.name, p.ppm
		}
	}
	return name, ppm
}

// quantile returns the nearest-rank quantile of sorted samples with
// ppm parts per million of samples beyond it.
func quantile(sorted []time.Duration, ppm int64) time.Duration {
	n := int64(len(sorted))
	if n == 0 {
		return 0
	}
	rank := (n*(1_000_000-ppm) + 999_999) / 1_000_000
	return sorted[min(max(rank-1, 0), n-1)]
}

// latencySummary is a timing as the benchmark reports it: median,
// interquartile mean and the tail percentile chosen by tailRule, with
// the sample count.
type latencySummary struct {
	N     int     `json:"n"`
	P50ms float64 `json:"p50_ms"`
	// IQMms is the mean of the middle half of the samples. On a host
	// whose speed flips between two levels the samples are bimodal and
	// the median jumps between the modes from run to run; the
	// interquartile mean moves smoothly with the share of time spent at
	// each speed, and still ignores the tail.
	IQMms  float64 `json:"iqm_ms"`
	Tail   string  `json:"tail_percentile"`
	TailMs float64 `json:"tail_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func summarize(samples []time.Duration) latencySummary {
	s := slices.Clone(samples)
	slices.Sort(s)
	name, ppm := tailRule(len(s))
	out := latencySummary{N: len(s), Tail: name, P50ms: ms(quantile(s, 500_000)), TailMs: ms(quantile(s, ppm))}
	if len(s) > 0 {
		out.IQMms = meanMs(s[len(s)/4 : len(s)-len(s)/4])
		out.MeanMs = meanMs(s)
		out.MaxMs = ms(s[len(s)-1])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func meanMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// medianFloat returns the median of xs (the mean of the middle pair
// for an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
