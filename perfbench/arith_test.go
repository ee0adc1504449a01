package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"banyan/internal/simnet"
	"banyan/internal/sweep"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{3.2, 1.1, 9.7, 4.4, 5.0}, 4.4},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 5}, 0, 6},
		{[]float64{3.2, 1.1, 9.7, 4.4, 5.0}, 2.15, 7.35},
		{[]float64{7, 7, 7}, 7, 7},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", StartNS: int64(ms(0)), EndNS: int64(ms(100))},
		// Two concurrent children overlapping on [20, 40) and a third
		// that sticks out past the parent's end.
		{ID: 2, Parent: 1, StartNS: int64(ms(10)), EndNS: int64(ms(40))},
		{ID: 3, Parent: 1, StartNS: int64(ms(20)), EndNS: int64(ms(50))},
		{ID: 4, Parent: 1, StartNS: int64(ms(90)), EndNS: int64(ms(120))},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, StartNS: int64(ms(15)), EndNS: int64(ms(25))},
	}
	self := selfTimes(spans)
	// Children cover [10, 50) and [90, 100): 50ms of the parent's 100ms.
	want := []time.Duration{ms(50), ms(20), ms(30), ms(30), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", spans[i].ID, self[i], want[i])
		}
	}
}

func TestTracerNestsAndTotals(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("unit", "rep0")
	inner := tr.begin("simnet.engine", "rep0")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner, 7)
	tr.end(outer, 0)
	if tr.spans[1].Parent != outer {
		t.Fatalf("inner span's parent = %d, want %d", tr.spans[1].Parent, outer)
	}
	en := tr.totals("simnet.engine")
	if en.Count != 7 || en.Spans != 1 || en.Self < 2*time.Millisecond {
		t.Errorf("engine totals = %+v", en)
	}
	if u := tr.totals("unit"); u.Self < 0 || u.Self >= en.Self {
		t.Errorf("unit self time %v should exclude the engine's %v", u.Self, en.Self)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", ""), 1) // records nothing, does not panic
}

func TestScheduleUtilizationAndTail(t *testing.T) {
	// Two workers. Batch A: two 10ms points side by side, then a 30ms
	// straggler that starts at 10ms and runs alone from 20ms to 40ms.
	a := scheduleOf([]interval{{ms(0), ms(10)}, {ms(0), ms(20)}, {ms(10), ms(40)}})
	if a.Busy != ms(60) || a.Makespan != ms(40) || a.Tail != ms(20) {
		t.Errorf("batch A = %+v, want busy 60ms, makespan 40ms, tail 20ms", a)
	}
	// Batch B: a single point runs alone for all of its 5ms.
	b := scheduleOf([]interval{{ms(100), ms(105)}})
	if b.Busy != ms(5) || b.Makespan != ms(5) || b.Tail != ms(5) {
		t.Errorf("batch B = %+v, want 5ms throughout", b)
	}
	// Batch C: both workers finish together: no tail.
	c := scheduleOf([]interval{{ms(0), ms(10)}, {ms(0), ms(10)}})
	if c.Tail != 0 {
		t.Errorf("batch C tail = %v, want 0", c.Tail)
	}
	// (60 + 5 + 20) ms busy over (40 + 5 + 10) ms × 2 workers.
	if got, want := utilization([]batchSchedule{a, b, c}, 2), 85.0/110.0; !near(got, want) {
		t.Errorf("utilization = %v, want %v", got, want)
	}
	if got := utilization(nil, 2); got != 0 {
		t.Errorf("utilization of nothing = %v, want 0", got)
	}
}

func TestFreshVisitsCountsOfferedTimesStages(t *testing.T) {
	point := func(stages int, cost bool, offered ...int64) settledPoint {
		pr := &sweep.PointResult{Point: sweep.Point{Cfg: simnet.Config{Stages: stages}}}
		for _, o := range offered {
			pr.Runs = append(pr.Runs, &simnet.Result{Offered: o})
		}
		if cost {
			pr.Cost = &sweep.PointCost{}
		}
		return settledPoint{pr: pr}
	}
	log := &pointLog{points: []settledPoint{
		point(8, true, 1000, 1200), // two replications of an 8-stage point
		point(4, true, 500),
		point(8, false, 1000), // served from the cache: not simulated again
	}}
	if got, want := freshVisits(log), int64(8*2200+4*500); got != want {
		t.Errorf("visits = %d, want %d", got, want)
	}
	samples := []unitSample{{Wall: 500 * time.Millisecond, Visits: freshVisits(log)}}
	if got, want := endToEndMetrics(samples, 0, 1, 0)["visits_per_s"].Value, float64(8*2200+4*500)/0.5; !near(got, want) {
		t.Errorf("visits_per_s = %v, want %v", got, want)
	}
}

func TestEndToEndMetricsUseMedians(t *testing.T) {
	samples := []unitSample{
		{Wall: ms(100), CPU: ms(90), AllocBytes: 1 * mb, Visits: 1000, PeakRSSMB: 40},
		{Wall: ms(300), CPU: ms(280), AllocBytes: 3 * mb, Visits: 1000, PeakRSSMB: 44}, // a noisy unit
		{Wall: ms(200), CPU: ms(190), AllocBytes: 2 * mb, Visits: 1000, PeakRSSMB: 42},
	}
	m := endToEndMetrics(samples, ms(3), 5, 0)
	for name, want := range map[string]float64{
		"wall_s":       0.2,
		"cpu_s":        0.19,
		"visits_per_s": 1000 / 0.2,
		"alloc_mb":     2,
		"peak_rss_mb":  42,
		"setup_s":      0.003,
	} {
		if got := m[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, manifest lists %d", len(m), len(endToEnd))
	}
	for _, e := range endToEnd {
		if m[e.Name].Unit != e.Unit {
			t.Errorf("%s unit %q, manifest says %q", e.Name, m[e.Name].Unit, e.Unit)
		}
	}
}

// BENCHMARK.json at the root of the repository is generated by
// --write-manifest; this keeps the two from drifting apart.
func TestManifestIsCurrent(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --write-manifest")
	}
}
