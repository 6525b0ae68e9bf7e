package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so Summarize must sort
	}
	return s
}

func TestSummarizePicksHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n, pm int
		tail  float64
	}{
		{9, 0, 0},          // no percentile leaves ten samples beyond it
		{40, 750, 30},      // p75: rank 30, 10 beyond
		{100, 900, 90},     // p90: 10 beyond; p95 would leave 5
		{999, 950, 950},    // p99 would leave 9
		{1000, 990, 990},   // p99 is supported from 1000 samples
		{10000, 999, 9990}, // p99.9 from 10000
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.N != c.n || s.Permille != c.pm || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want permille %d tail %v", c.n, s, c.pm, c.tail)
		}
		if want := float64((c.n + 1) / 2); s.Median != want {
			t.Errorf("n=%d: median %v, want %v", c.n, s.Median, want)
		}
	}
	if s := Summarize(nil); s.N != 0 || s.Permille != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestTailSupported(t *testing.T) {
	if tailSupported(999, 990) || !tailSupported(1000, 990) {
		t.Error("p99 must need exactly 1000 samples")
	}
	if tailSupported(0, 500) {
		t.Error("an empty sample supports nothing")
	}
}

func TestEngineOutcome(t *testing.T) {
	cases := []struct {
		n              int
		errored, paced bool
		want           Outcome
	}{
		{1, false, false, Served}, // solved or coasted: a coast is an event without error
		{1, false, true, Served},
		{1, true, true, Errored},
		{0, false, true, Skipped},
		{0, false, false, Missing},
		{2, false, true, Duplicate},
	}
	for _, c := range cases {
		if got := engineOutcome(c.n, c.errored, c.paced); got != c.want {
			t.Errorf("engineOutcome(%d, %v, %v) = %v, want %v", c.n, c.errored, c.paced, got, c.want)
		}
	}
}

func TestDeliveryOutcome(t *testing.T) {
	tick := 20 * time.Millisecond
	cases := []struct {
		n      int
		miss   bool
		lateBy time.Duration
		want   Outcome
	}{
		{1, false, 5 * time.Millisecond, Served},
		{1, false, tick, Served}, // exactly one tick late is still on time
		{1, false, tick + 1, Late},
		{1, true, 0, Errored},
		{0, false, 0, Missing},
		{2, false, 0, Duplicate},
	}
	for _, c := range cases {
		if got := deliveryOutcome(c.n, c.miss, c.lateBy, tick); got != c.want {
			t.Errorf("deliveryOutcome(%d, %v, %v) = %v, want %v", c.n, c.miss, c.lateBy, got, c.want)
		}
	}
}

func TestLedgerCountsEveryNonServedOutcomeAsMissed(t *testing.T) {
	var l Ledger
	for o := Outcome(0); o < numOutcomes; o++ {
		l.Add(o)
	}
	l.Add(Served)
	if l.Due() != uint64(numOutcomes)+1 || l.Missed() != uint64(numOutcomes)-1 {
		t.Fatalf("ledger %v: due %d missed %d", l, l.Due(), l.Missed())
	}
	if l.Failed() != l.Missed()-1 {
		t.Errorf("ledger %v: failed %d, want missed %d less the one late fix", l, l.Failed(), l.Missed())
	}
	var m Ledger
	m.Merge(l)
	m.Merge(l)
	if m.Missed() != 2*l.Missed() {
		t.Errorf("merge: %v", m)
	}
	if got, want := l.MissedPct(), 100*float64(numOutcomes-1)/float64(numOutcomes+1); got != want {
		t.Errorf("MissedPct %v, want %v", got, want)
	}
}
