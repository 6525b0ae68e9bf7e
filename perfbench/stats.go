package main

import (
	"fmt"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with fewer is an anecdote, not a statistic, so it is
// never reported.
const minTail = 10

// ladder lists the percentiles a Summary may report, highest first, in
// per-mille so ranks are exact integer arithmetic.
var ladder = []int{999, 990, 950, 900, 750}

// Summary is how every timing is reported: the median, the highest
// percentile with at least minTail samples beyond it, and the sample
// count.
type Summary struct {
	N      int
	Median float64
	// Permille is the reported tail percentile in per-mille (990 is
	// p99); 0 when the sample is too small for any tail.
	Permille int
	Tail     float64
}

// rank is the 1-based nearest-rank position of the pm-per-mille
// percentile in a sorted sample of n.
func rank(n, pm int) int { return (pm*n + 999) / 1000 }

// tailSupported reports whether n samples leave at least minTail
// samples beyond the pm-per-mille percentile.
func tailSupported(n, pm int) bool { return n > 0 && n-rank(n, pm) >= minTail }

// quantile returns the nearest-rank pm-per-mille percentile of sorted.
func quantile(sorted []float64, pm int) float64 {
	r := rank(len(sorted), pm)
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// Summarize sorts samples in place and summarizes them.
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sort.Float64s(samples)
	s.Median = quantile(samples, 500)
	for _, pm := range ladder {
		if tailSupported(s.N, pm) {
			s.Permille, s.Tail = pm, quantile(samples, pm)
			break
		}
	}
	return s
}

// String renders "p50=… p99=… n=…" with the given value format.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.Permille == 0 {
		return fmt.Sprintf("p50=%.4g n=%d", s.Median, s.N)
	}
	return fmt.Sprintf("p50=%.4g %s=%.4g n=%d", s.Median, pctName(s.Permille), s.Tail, s.N)
}

func pctName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%.1f", float64(pm)/10)
}

// Outcome is how one due operation ended: a session-epoch at the
// engine's sink, or a subscribed session-epoch at a wire client.
type Outcome uint8

// Outcomes. Only Served counts as a delivered fix.
const (
	// Served: a solved or coasted fix, on time.
	Served Outcome = iota
	// Errored: the epoch produced an event with an error (epoch error,
	// solve failure with nothing to coast on, quarantined session), or
	// a MISS frame on the wire.
	Errored
	// Skipped: the engine never stepped the epoch (a paced tick found
	// the shard busy).
	Skipped
	// Missing: a subscriber never decoded the epoch.
	Missing
	// Duplicate: the epoch arrived more than once.
	Duplicate
	// Late: a subscriber decoded it more than one tick after due.
	Late
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"served", "errored", "skipped", "missing", "duplicate", "late"}

func (o Outcome) String() string { return outcomeNames[o] }

// engineOutcome classifies one due session-epoch from the events the
// sink saw for it: n events, the last of them with or without an
// error. paced says whether an absent event means a skipped tick (a
// paced run) or a lost epoch (a batch run).
func engineOutcome(n int, errored, paced bool) Outcome {
	switch {
	case n == 0 && paced:
		return Skipped
	case n == 0:
		return Missing
	case n > 1:
		return Duplicate
	case errored:
		return Errored
	}
	return Served
}

// deliveryOutcome classifies one subscribed session-epoch at a client:
// decoded n times, the frame a MISS or not, decoded lateBy after due.
// A fix decoded more than one tick interval after due is late.
func deliveryOutcome(n int, miss bool, lateBy, tick time.Duration) Outcome {
	switch {
	case n == 0:
		return Missing
	case n > 1:
		return Duplicate
	case miss:
		return Errored
	case lateBy > tick:
		return Late
	}
	return Served
}

// Ledger counts due operations by outcome.
type Ledger [numOutcomes]uint64

// Add counts one operation.
func (l *Ledger) Add(o Outcome) { l[o]++ }

// Merge adds another ledger's counts.
func (l *Ledger) Merge(o Ledger) {
	for i := range l {
		l[i] += o[i]
	}
}

// Due is the number of operations counted.
func (l Ledger) Due() uint64 {
	var n uint64
	for _, c := range l {
		n += c
	}
	return n
}

// Missed is every operation that did not end Served.
func (l Ledger) Missed() uint64 { return l.Due() - l[Served] }

// Failed is every operation that did not deliver exactly one fix:
// Missed less Late. A late fix was delivered and is correct; how late
// it was is a timing, counted against the served share and the
// latency metrics, not a failed operation.
func (l Ledger) Failed() uint64 { return l.Missed() - l[Late] }

// MissedPct is Missed as a percentage of Due (0 for an empty ledger).
func (l Ledger) MissedPct() float64 {
	if l.Due() == 0 {
		return 0
	}
	return 100 * float64(l.Missed()) / float64(l.Due())
}

// String lists the non-zero counts.
func (l Ledger) String() string {
	s := fmt.Sprintf("due=%d", l.Due())
	for o, c := range l {
		if c > 0 {
			s += fmt.Sprintf(" %s=%d", Outcome(o), c)
		}
	}
	return s
}
