package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// sampleRateHz is the wearable sampling rate sessions are counted at.
const sampleRateHz = 360

// dist is a latency distribution: the samples of one run, in ms. A
// failed operation enters as +Inf, so it counts as missing every
// latency limit.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(ms float64) { d.xs = append(d.xs, ms); d.sorted = false }

// addFailed records an operation that never completed.
func (d *dist) addFailed() { d.add(math.Inf(1)) }

func (d *dist) n() int { return len(d.xs) }

// sum totals the samples (the busy time of per-tick durations).
func (d *dist) sum() float64 {
	t := 0.0
	for _, x := range d.xs {
		t += x
	}
	return t
}

// pct returns the p-th percentile (0 <= p <= 100), linearly interpolated
// between the two nearest ranks, the way numpy's default and Python's
// statistics.quantiles(method="inclusive") compute it. An empty
// distribution has no percentile.
func (d *dist) pct(p float64) (float64, error) {
	if len(d.xs) == 0 {
		return 0, fmt.Errorf("percentile of an empty distribution")
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	pos := p / 100 * float64(len(d.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if d.xs[hi] == d.xs[lo] || math.IsInf(d.xs[hi], 1) {
		return d.xs[hi], nil
	}
	return d.xs[lo] + (pos-float64(lo))*(d.xs[hi]-d.xs[lo]), nil
}

// beyond counts the samples strictly above the p-th percentile: the
// support a tail percentile rests on.
func (d *dist) beyond(p float64) int {
	v, err := d.pct(p)
	if err != nil {
		return 0
	}
	return len(d.xs) - sort.Search(len(d.xs), func(i int) bool { return d.xs[i] > v })
}

// median is the 50th percentile.
func (d *dist) median() float64 {
	v, _ := d.pct(50)
	return v
}

// report fills p50_ms and tail_ms, the tail-th percentile, and logs the
// sample count and the support of the tail, so a reader can judge how far
// the tail is from the maximum. Each workload fixes its tail percentile
// (dseTail, gridTail; 99 for the serving workloads). A percentile
// that lands on a failed operation is reported at limit, the latency
// limit (ms) every failure misses, and marks the run incorrect: the tail
// is then the failures, not a latency. The result line is still printed,
// with the failures in its counts.
func (d *dist) report(o *outcome, what string, tail, limit float64) error {
	p50, err := d.pct(50)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	pt, _ := d.pct(tail)
	if math.IsInf(pt, 1) {
		o.check(false, "%s: more than %g%% of %d operations failed; p%g reported at the %.1f ms limit", what, 100-tail, d.n(), tail, limit)
		pt = limit
		if math.IsInf(p50, 1) {
			p50 = limit
		}
	}
	o.metrics["p50_ms"] = p50
	o.metrics["tail_ms"] = pt
	logf("%s: n=%d p50=%.3f ms p%g=%.3f ms (%d samples beyond p%g)", what, d.n(), p50, tail, pt, d.beyond(tail), tail)
	return nil
}

// cpuTime returns the process's user+system CPU time (getrusage), the
// denominator of every per-core throughput.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sessionsPerCore converts samples processed in cpu of process CPU time
// into the number of 360 Hz sessions one core sustains.
func sessionsPerCore(samples float64, cpu time.Duration) float64 {
	if cpu <= 0 {
		return 0
	}
	return samples / cpu.Seconds() / sampleRateHz
}

// lateness summarizes how far an open-loop generator ran behind its
// schedule: per tick, the actual start minus the scheduled start (ms,
// never negative).
type lateness struct{ d dist }

func (l *lateness) observe(scheduled, actual time.Time) {
	late := actual.Sub(scheduled)
	if late < 0 {
		late = 0
	}
	l.d.add(float64(late) / float64(time.Millisecond))
}

// p99 is the generator's 99th-percentile lateness (0 with no ticks).
func (l *lateness) p99() float64 {
	v, err := l.d.pct(99)
	if err != nil {
		return 0
	}
	return v
}

// max is the generator's worst lateness (0 with no ticks).
func (l *lateness) max() float64 {
	v, err := l.d.pct(100)
	if err != nil {
		return 0
	}
	return v
}

// slope is the least-squares slope of ys over xs (0 for fewer than two
// points or constant xs); a growing backlog has a positive slope.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// medianOf returns the median of a few repeated measurements (setup
// times, per-run layer sums).
func medianOf(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.median()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
