package main

import (
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the spread of a metric is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3), true
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// interval is one busy period [Start, End) on a shared clock.
type interval struct{ Start, End time.Duration }

// coveredTime returns the length of the union of ivs clipped to
// [lo, hi): the part of that window some interval covers.
func coveredTime(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.Start, iv.End
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.Start <= cur.End:
			if iv.End > cur.End {
				cur.End = iv.End
			}
		default:
			total += cur.End - cur.Start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.End - cur.Start
	}
	return total
}

// batchSchedule summarises how one batch of points used the worker pool:
// Busy is the summed point wall time, Makespan the first start to the
// last end, and Tail how long the last point to finish ran alone.
type batchSchedule struct {
	Busy, Makespan, Tail time.Duration
}

// scheduleOf analyses one batch's point intervals.
func scheduleOf(points []interval) batchSchedule {
	if len(points) == 0 {
		return batchSchedule{}
	}
	first, last := points[0].Start, 0
	var busy time.Duration
	for i, p := range points {
		busy += p.End - p.Start
		if p.Start < first {
			first = p.Start
		}
		if p.End > points[last].End {
			last = i
		}
	}
	lp := points[last]
	// The last point runs alone from the moment every other point has
	// ended (or from its own start, if it started after them).
	alone := lp.Start
	for i, p := range points {
		if i != last && p.End > alone {
			alone = p.End
		}
	}
	tail := lp.End - alone
	if tail < 0 {
		tail = 0
	}
	return batchSchedule{Busy: busy, Makespan: lp.End - first, Tail: tail}
}

// utilization is the share of worker time the batches kept busy:
// summed point wall over summed makespan × workers.
func utilization(batches []batchSchedule, workers int) float64 {
	var busy, span time.Duration
	for _, b := range batches {
		busy += b.Busy
		span += b.Makespan
	}
	if span <= 0 || workers < 1 {
		return 0
	}
	return float64(busy) / (float64(span) * float64(workers))
}
