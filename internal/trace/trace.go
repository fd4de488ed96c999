// Package trace provides the lightweight instrumentation the benchmarks
// use: named time accumulators for dimension-wise communication breakdowns
// (Figure 6 of the paper) and simple timing helpers over virtual time.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"mv2sim/internal/sim"
)

// Clock is anything that can report the current virtual time; both
// *sim.Engine and mpi.Rank satisfy it.
type Clock interface {
	Now() sim.Time
}

// Breakdown accumulates named durations in insertion order.
type Breakdown struct {
	keys []string
	vals map[string]sim.Time
}

// NewBreakdown creates an empty accumulator.
func NewBreakdown() *Breakdown {
	return &Breakdown{vals: map[string]sim.Time{}}
}

// Add accumulates d under key, registering the key on first use.
func (b *Breakdown) Add(key string, d sim.Time) {
	if _, ok := b.vals[key]; !ok {
		b.keys = append(b.keys, key)
	}
	b.vals[key] += d
}

// Timed runs fn and accumulates its elapsed virtual time under key.
func (b *Breakdown) Timed(key string, c Clock, fn func()) {
	t0 := c.Now()
	fn()
	b.Add(key, c.Now()-t0)
}

// Get returns the accumulated time for key (zero if never added).
func (b *Breakdown) Get(key string) sim.Time { return b.vals[key] }

// Keys returns the keys in first-use order.
func (b *Breakdown) Keys() []string { return append([]string(nil), b.keys...) }

// Total returns the sum over all keys. Like Keys and String it walks the
// keys in insertion order, so any rounding in downstream arithmetic is
// deterministic run to run.
func (b *Breakdown) Total() sim.Time {
	var t sim.Time
	for _, k := range b.keys {
		t += b.vals[k]
	}
	return t
}

// Merge adds every entry of other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for _, k := range other.keys {
		b.Add(k, other.vals[k])
	}
}

// Scale multiplies every accumulated value by factor, e.g. 1/iterations to
// turn a whole-run accumulation into a per-iteration breakdown.
func (b *Breakdown) Scale(factor float64) {
	for _, k := range b.keys {
		b.vals[k] = sim.Time(float64(b.vals[k]) * factor)
	}
}

// Sub subtracts other's entries from b, registering keys b has not seen.
// Together with Scale it supports differential breakdowns ("this run minus
// baseline").
func (b *Breakdown) Sub(other *Breakdown) {
	for _, k := range other.keys {
		b.Add(k, -other.vals[k])
	}
}

// String renders one line per key, aligned, in insertion order.
func (b *Breakdown) String() string {
	var sb strings.Builder
	width := 0
	for _, k := range b.keys {
		if len(k) > width {
			width = len(k)
		}
	}
	for _, k := range b.keys {
		fmt.Fprintf(&sb, "%-*s %12.1f us\n", width+1, k, b.vals[k].Micros())
	}
	return sb.String()
}

// Sorted returns (key, value) pairs ordered by descending value.
func (b *Breakdown) Sorted() []struct {
	Key string
	Val sim.Time
} {
	out := make([]struct {
		Key string
		Val sim.Time
	}, 0, len(b.keys))
	for _, k := range b.keys {
		out = append(out, struct {
			Key string
			Val sim.Time
		}{k, b.vals[k]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Val > out[j].Val })
	return out
}

// Median returns the median of a sample of durations; it is the statistic
// the paper reports for Stencil2D iteration times. The input is not
// modified. Median of an empty sample is 0.
func Median(samples []sim.Time) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]sim.Time(nil), samples...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
