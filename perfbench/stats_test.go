package main

import (
	"testing"
	"time"
)

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "p50"},
		{19, "p50"},
		{20, "p50"},
		{99, "p50"},
		{100, "p90"},
		{999, "p90"},
		{1000, "p99"},
		{9_999, "p99"},
		{10_000, "p99.9"},
		{100_000, "p99.99"},
		{1_000_000, "p99.999"},
		{50_000_000, "p99.999"},
	} {
		if got, _ := tailRule(tc.n); got != tc.want {
			t.Errorf("tailRule(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, tc := range []struct {
		ppm  int64
		want time.Duration
	}{
		{500_000, 500}, // p50
		{10_000, 990},  // p99: ten samples beyond
		{1_000, 999},   // p99.9: one sample beyond
	} {
		if got := quantile(s, tc.ppm); got != tc.want {
			t.Errorf("quantile(1..1000, %d ppm beyond) = %d, want %d", tc.ppm, got, tc.want)
		}
	}
	// The chosen tail leaves at least ten samples above it.
	_, ppm := tailRule(len(s))
	tail := quantile(s, ppm)
	beyond := 0
	for _, d := range s {
		if d > tail {
			beyond++
		}
	}
	if beyond < tailBeyond {
		t.Errorf("tail %d leaves %d samples beyond, want at least %d", tail, beyond, tailBeyond)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if s.N != 3 || s.P50ms != 2 || s.IQMms != 2 || s.MaxMs != 3 || s.MeanMs != 2 || s.Tail != "p50" {
		t.Errorf("summarize = %+v", s)
	}
	// Half the samples at 1 ms, half at 3 ms: the median sits on one
	// mode, the interquartile mean between them.
	var bimodal []time.Duration
	for i := range 100 {
		bimodal = append(bimodal, time.Duration(1+2*(i%2))*time.Millisecond)
	}
	if s := summarize(bimodal); s.IQMms != 2 {
		t.Errorf("interquartile mean of a two-mode sample = %v, want 2", s.IQMms)
	}
	if s := summarize([]time.Duration{1, 2, 3, 4, 5, 6, 7, 1000}); s.IQMms != 4.5e-6 {
		t.Errorf("interquartile mean = %v ms, want the middle half's 4.5 ns", s.IQMms)
	}
	if m := medianFloat([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", m)
	}
}
