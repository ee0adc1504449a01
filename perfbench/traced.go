package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stats"
	"banyan/internal/sweep"
)

// tracedRun is the separate traced run: it replays a workload's work as
// timed calls into each layer's public entry points and reduces the
// spans to the per-layer metrics. Busy times and counts are per unit (a
// pass, a replication, or a replication pair, as in the untraced run);
// ns_per_* figures are per unit of work.
type tracedRun struct {
	b     *bench
	t     *tracer
	units int

	// Untraced and traced wall time of the same units, the bases of
	// bench.trace_overhead_ratio.
	untraced, traced time.Duration

	measured, offered int64     // engine replays: measured and offered messages
	stage1Err         []float64 // |simulated − Theorem 1| / Theorem 1 per config

	// Observed engine replays against the bare engine on the same reps.
	observed, bare time.Duration
	observedReps   int
	obsSpans       int64 // tracer spans the observed replays sampled

	blockedCycles, saturated int64 // graph-hotspot, summed over units

	vals map[string]float64 // metrics a workload sets directly
}

func runTraced(b *bench) (map[string]metricValue, error) {
	r := &tracedRun{b: b, t: newTracer(), vals: map[string]float64{}}
	h0 := readHeap()
	var err error
	switch b.name {
	case "paper-quick":
		err = r.paperQuick()
	case "kernel-ref":
		err = r.kernel(false)
	case "kernel-observed":
		err = r.kernel(true)
	case "graph-hotspot":
		err = r.graph()
	}
	if err != nil {
		return nil, err
	}
	h1 := readHeap()
	r.vals["runtime.gc_cycles"] = float64(h1.GCCycles - h0.GCCycles)
	r.vals["runtime.gc_pause_s"] = time.Duration(h1.GCPauseNS - h0.GCPauseNS).Seconds()
	r.vals["runtime.heap_peak_mb"] = float64(r.t.heapPeak) / mb

	path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.jsonl", b.name, b.seed))
	if err := r.t.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return r.metrics(), nil
}

// metrics reduces the spans and counters to every per-layer metric.
func (r *tracedRun) metrics() map[string]metricValue {
	u := float64(r.units)
	if u == 0 {
		u = 1
	}
	perUnit := func(d time.Duration) float64 { return d.Seconds() / u }
	nsPer := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	v := r.vals
	tr := r.t.totals("simnet.trace")
	v["trace.busy_s"] = perUnit(tr.Self)
	v["trace.msgs"] = float64(tr.Count) / u
	v["trace.ns_per_msg"] = nsPer(tr.Self, tr.Count)
	v["trace.alloc_mb"] = float64(tr.AllocBytes) / mb / u

	en := r.t.totals("simnet.engine")
	v["engine.busy_s"] = perUnit(en.Self)
	v["engine.visits"] = float64(en.Count) / u
	v["engine.ns_per_visit"] = nsPer(en.Self, en.Count)
	v["engine.alloc_mb"] = float64(en.AllocBytes) / mb / u
	v["engine.allocs"] = float64(en.AllocObjects) / u
	if r.offered > 0 {
		v["engine.useful_ratio"] = float64(r.measured) / float64(r.offered)
	}
	v["engine.stage1_err"] = median(r.stage1Err)

	gc, gb := r.t.totals("simnet.graph.committed"), r.t.totals("simnet.graph.blocking")
	v["graph.committed.busy_s"] = perUnit(gc.Self)
	v["graph.committed.ns_per_visit"] = nsPer(gc.Self, gc.Count)
	v["graph.blocking.busy_s"] = perUnit(gb.Self)
	v["graph.blocking.ns_per_visit"] = nsPer(gb.Self, gb.Count)
	v["graph.blocked_cycles"] = float64(r.blockedCycles) / u
	v["graph.saturated_switches"] = float64(r.saturated) / u
	v["graph.alloc_mb"] = float64(gc.AllocBytes+gb.AllocBytes) / mb / u

	sw, sh := r.t.totals("stats.welford"), r.t.totals("stats.hist")
	v["stats.busy_s"] = (sw.Self + sh.Self).Seconds()
	v["stats.adds"] = float64(sw.Count + sh.Count)
	v["stats.ns_per_add"] = nsPer(sw.Self+sh.Self, sw.Count+sh.Count)
	v["stats.merge_s"] = r.t.totals("stats.aggregate").Self.Seconds()

	if r.bare > 0 {
		v["obs.overhead_ratio"] = float64(r.observed) / float64(r.bare)
	}
	if r.observedReps > 0 {
		v["obs.observed_engine_s"] = r.observed.Seconds() / float64(r.observedReps)
		v["obs.bare_engine_s"] = r.bare.Seconds() / float64(r.observedReps)
	}
	oh := r.t.totals("obs.hist")
	v["obs.hist_ns_per_add"] = nsPer(oh.Self, oh.Count)
	if d := r.t.totals("obs.drift_check"); d.Spans > 0 {
		v["obs.drift_check_s"] = d.Self.Seconds() / float64(d.Spans)
	}
	if e := r.t.totals("obs.exposition"); e.Spans > 0 {
		v["obs.exposition_s"] = e.Self.Seconds() / float64(e.Spans)
		v["obs.exposition_bytes"] = float64(e.Count) / float64(e.Spans)
	}
	if r.observedReps > 0 {
		v["obs.spans"] = float64(r.obsSpans) / float64(r.observedReps)
	}

	if r.untraced > 0 {
		v["bench.trace_overhead_ratio"] = float64(r.traced) / float64(r.untraced)
	}
	fmt.Printf("%-34s %14.6g s (per unit)\n", "base: untraced unit wall", r.untraced.Seconds()/u)
	fmt.Printf("%-34s %14.6g s (per unit)\n", "base: traced unit wall", r.traced.Seconds()/u)
	fmt.Printf("%-34s %14.6g s (per unit)\n", "trace.busy_s + engine.busy_s", v["trace.busy_s"]+v["engine.busy_s"])
	fmt.Printf("%-34s %14.6g s (over %d reps)\n", "base: observed engine", r.observed.Seconds(), r.observedReps)
	fmt.Printf("%-34s %14.6g s (same reps)\n", "base: bare engine", r.bare.Seconds())
	fmt.Printf("%-34s %14d count\n", "traced units", r.units)

	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = metricValue{v[m.Name], m.Unit} // layers a workload never calls stay 0
	}
	return out
}

// drainTrace generates a config's whole arrival schedule through the
// streaming generator and discards it, returning the message count.
func drainTrace(cfg *simnet.Config) (int64, error) {
	s, err := simnet.NewTraceStream(cfg, 0)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		blk, err := s.Next()
		if err != nil {
			return n, err
		}
		if blk == nil {
			return n, nil
		}
		n += int64(blk.Len())
	}
}

// replayRep replays one replication layer by layer: the trace stream
// drained alone, the trace materialized, then the engine over the
// materialized trace, so engine time excludes trace generation.
func (r *tracedRun) replayRep(group string, cfg simnet.Config, eng sweep.Engine) (*simnet.Result, *simnet.Trace, time.Duration, error) {
	t := r.t
	id := t.begin("simnet.trace", group)
	n, err := drainTrace(&cfg)
	t.end(id, n)
	if err != nil {
		return nil, nil, 0, err
	}
	id = t.begin("simnet.materialize", group)
	tr, err := simnet.GenerateTrace(&cfg)
	t.end(id, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	id = t.begin("simnet.engine", group)
	var res *simnet.Result
	if eng == sweep.Literal {
		res, err = simnet.RunLiteral(&cfg, tr)
	} else {
		res, err = simnet.RunKernelSource(&cfg, tr.Source())
	}
	var visits int64
	if err == nil {
		visits = res.Offered * int64(cfg.Stages)
	}
	t.end(id, visits)
	dur := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	r.measured += res.Messages
	r.offered += res.Offered
	return res, tr, dur, nil
}

// noteStage1 records a config's stage-1 error against Theorem 1, pooled
// over its replications; configs the paper has no model for are skipped.
func (r *tracedRun) noteStage1(cfg simnet.Config, runs []*simnet.Result) {
	an, err := stage1Analysis(cfg)
	if err != nil || an.MeanWait() <= 0 {
		return
	}
	var w stats.Welford
	for _, res := range runs {
		w.Merge(res.StageWait[0])
	}
	r.stage1Err = append(r.stage1Err, math.Abs(w.Mean()-an.MeanWait())/an.MeanWait())
}

// observeRep runs a replication's engine again with the observability
// stack on, over the same materialized trace, then the drift check and
// the exposition. It checks the observed Result against the bare one and
// returns the exact per-stage waits the engine recorded.
func (r *tracedRun) observeRep(group string, stack *obsStack, cfg simnet.Config, tr *simnet.Trace,
	bare *simnet.Result, bareDur time.Duration) []*stats.Hist {
	t, b := r.t, r.b
	ocfg := stack.attach(cfg)
	spans := stack.probe.Tracer.Total()
	start := time.Now()
	id := t.begin("obs.engine", group)
	res, err := simnet.RunKernelSource(&ocfg, tr.Source())
	t.end(id, 0)
	r.observed += time.Since(start)
	r.bare += bareDur
	r.observedReps++
	b.op(err == nil && reflect.DeepEqual(res, bare), "%s: observed Result differs from the bare engine's (err=%v)", group, err)

	id = t.begin("obs.drift_check", group)
	rep, err := stack.drift.Check(&ocfg, ocfg.WaitHists)
	t.end(id, 0)
	b.op(err == nil && !rep.Drifted, "%s: drift check: err=%v drifted=%v", group, err, rep != nil && rep.Drifted)

	id = t.begin("obs.exposition", group)
	err = stack.expose()
	t.end(id, int64(stack.page.Len()))
	b.op(err == nil, "%s: OpenMetrics exposition: %v", group, err)
	verr := stack.validate()
	b.op(verr == nil, "%s: OpenMetrics page does not parse: %v", group, verr)
	r.obsSpans += stack.probe.Tracer.Total() - spans
	return ocfg.WaitHists
}

// replayWaits feeds each stage's exact waits, in a seeded shuffled
// order, into the statistics layer's accumulators and the observability
// layer's histograms, one stage at a time.
func (r *tracedRun) replayWaits(hists []*stats.Hist) {
	t := r.t
	for s, h := range hists {
		counts := h.Counts()
		vals := make([]int32, 0, h.N())
		for v, c := range counts {
			for ; c > 0; c-- {
				vals = append(vals, int32(v))
			}
		}
		rng := rand.New(rand.NewPCG(r.b.seed, uint64(s)))
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		group := fmt.Sprintf("stage%d", s+1)
		n := int64(len(vals))

		var w stats.Welford
		id := t.begin("stats.welford", group)
		for _, v := range vals {
			w.Add(float64(v))
		}
		t.end(id, n)
		var sh stats.Hist
		id = t.begin("stats.hist", group)
		for _, v := range vals {
			sh.Add(int(v))
		}
		t.end(id, n)
		var oh obs.Hist
		id = t.begin("obs.hist", group)
		for _, v := range vals {
			oh.Record(int64(v))
		}
		t.end(id, n)

		r.b.op(w.N() == h.N() && reflect.DeepEqual(sh.Counts(), counts) && oh.N() == h.N(),
			"stage %d: replayed waits do not match the engine's histogram", s+1)
	}
}

// aggregate times simnet.Aggregate over one config's replications.
func (r *tracedRun) aggregate(group string, runs []*simnet.Result, stages int) {
	id := r.t.begin("stats.aggregate", group)
	simnet.Aggregate(runs, stages)
	r.t.end(id, int64(len(runs)))
}

// loopUnits runs, for i = 0, 1, …, unit i untraced and then the same
// unit traced (under a "unit" span), until the traced phase has lasted
// b.seconds, and at least one pair. Interleaving puts both bases of
// bench.trace_overhead_ratio under the same machine conditions.
func (r *tracedRun) loopUnits(untraced func(i int) error, traced func(i int, group string) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < r.b.seconds; i++ {
		t0 := time.Now()
		if err := untraced(i); err != nil {
			return err
		}
		r.untraced += time.Since(t0)
		group := fmt.Sprintf("%s/rep%d", r.b.name, i)
		t0 = time.Now()
		id := r.t.begin("unit", group)
		err := traced(i, group)
		r.t.end(id, 0)
		r.traced += time.Since(t0)
		if err != nil {
			return err
		}
		r.units++
	}
	return nil
}

// kernel is the traced run of kernel-ref (observed=false) and
// kernel-observed: each replication untraced, then replayed layer by
// layer and checked against the untraced Result; then the statistics
// and histogram replays of replication 0.
func (r *tracedRun) kernel(observed bool) error {
	b := r.b
	ctx := context.Background()
	var stack *obsStack
	if observed {
		stack = newObsStack(8)
	}
	var base *simnet.Result
	untraced := func(i int) error {
		cfg := refConfig(b.seed, i)
		if observed {
			cfg = stack.attach(cfg)
		}
		var err error
		if base, err = simnet.RunCtx(ctx, &cfg); err != nil || !observed {
			return err
		}
		if _, err := stack.drift.Check(&cfg, cfg.WaitHists); err != nil {
			return err
		}
		return stack.expose()
	}

	var runs []*simnet.Result
	var waits []*stats.Hist
	var firstTrace *simnet.Trace
	var firstDur time.Duration
	err := r.loopUnits(untraced, func(i int, group string) error {
		cfg := refConfig(b.seed, i)
		res, tr, dur, err := r.replayRep(group, cfg, sweep.Fast)
		if err != nil {
			return err
		}
		b.op(reflect.DeepEqual(res, base), "%s: replay differs from the untraced run", group)
		runs = append(runs, res)
		if observed {
			wh := r.observeRep(group, stack, cfg, tr, res, dur)
			if i == 0 {
				waits = wh
			}
		} else if i == 0 {
			firstTrace, firstDur = tr, dur
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !observed {
		id := r.t.begin("replay", b.name)
		waits = r.observeRep(b.name+"/rep0", newObsStack(8), refConfig(b.seed, 0), firstTrace, runs[0], firstDur)
		r.t.end(id, 0)
	}
	id := r.t.begin("replay", b.name)
	r.replayWaits(waits)
	r.aggregate(b.name, runs, 8)
	r.t.end(id, 0)
	r.noteStage1(refConfig(b.seed, 0), runs)
	return nil
}

// kernelConfig strips the graph-only fields from a graph-hotspot config,
// leaving the stage-model config the kernel runs on the same traffic.
func kernelConfig(cfg simnet.Config) simnet.Config {
	cfg.Topology, cfg.TrackSwitches, cfg.StageBuffers = "", false, nil
	return cfg
}

// graph is the traced run of graph-hotspot: replication pair 0 untraced
// as the base, then traced pairs — trace, materialization, the kernel on
// the same traffic, graph committed and graph blocking — then the
// observed-kernel and statistics replays of pair 0.
func (r *tracedRun) graph() error {
	b := r.b
	ctx := context.Background()
	var baseC, baseB *simnet.Result
	untraced := func(i int) error {
		ccfg, bcfg := hotConfig(b.seed, i, false), hotConfig(b.seed, i, true)
		var err error
		if baseC, err = simnet.RunGraphCtx(ctx, &ccfg); err != nil {
			return err
		}
		baseB, err = simnet.RunGraphCtx(ctx, &bcfg)
		return err
	}

	var runs []*simnet.Result
	var firstTrace *simnet.Trace
	var firstDur time.Duration
	err := r.loopUnits(untraced, func(i int, group string) error {
		ccfg, bcfg := hotConfig(b.seed, i, false), hotConfig(b.seed, i, true)
		res, tr, dur, err := r.replayRep(group, kernelConfig(ccfg), sweep.Fast)
		if err != nil {
			return err
		}
		runs = append(runs, res)
		id := r.t.begin("simnet.graph.committed", group)
		committed, err := simnet.RunGraphTrace(&ccfg, tr)
		var visits int64
		if err == nil {
			visits = committed.Offered * int64(ccfg.Stages)
		}
		r.t.end(id, visits)
		if err != nil {
			return err
		}
		id = r.t.begin("simnet.graph.blocking", group)
		blocking, err := simnet.RunGraphTrace(&bcfg, tr)
		visits = 0
		if err == nil {
			visits = blocking.Offered * int64(bcfg.Stages)
		}
		r.t.end(id, visits)
		if err != nil {
			return err
		}
		checkGraphPair(b, i, committed, blocking)
		b.op(reflect.DeepEqual(committed, baseC) && reflect.DeepEqual(blocking, baseB),
			"%s: replay differs from the untraced run", group)
		if i == 0 {
			firstTrace, firstDur = tr, dur
		}
		r.blockedCycles += blocking.BlockedCycles
		r.saturated += int64(saturatedSwitches(committed, blocking))
		return nil
	})
	if err != nil {
		return err
	}
	c0 := kernelConfig(hotConfig(b.seed, 0, false))
	id := r.t.begin("replay", b.name)
	waits := r.observeRep(b.name+"/rep0", newObsStack(8), c0, firstTrace, runs[0], firstDur)
	r.replayWaits(waits)
	r.aggregate(b.name, runs, 8)
	r.t.end(id, 0)
	r.noteStage1(c0, runs)
	return nil
}

// saturatedSwitches counts the distinct switches either mode flagged
// saturated.
func saturatedSwitches(runs ...*simnet.Result) int {
	seen := map[[2]int]bool{}
	for _, res := range runs {
		for _, s := range res.SwitchSat {
			if s.Saturated {
				seen[[2]int{s.Stage, s.Switch}] = true
			}
		}
	}
	return len(seen)
}

// paperQuick is the traced run of paper-quick: one untraced pass as the
// base; one traced pass, whose constructor, render, checkpoint and
// ledger calls are spans and whose settled points are timed by the
// reporter; then a replay, at parallelism 1, of every point the pass
// simulated, checked bit for bit against the sweep's results.
func (r *tracedRun) paperQuick() error {
	b := r.b
	start := time.Now()
	basePass, err := paperPass(b, nil)
	if err != nil {
		return err
	}
	r.untraced = time.Since(start)

	// One traced pass: the replay below takes the rest of the budget.
	start = time.Now()
	id := r.t.begin("unit", b.name+"/pass0")
	pass, err := paperPass(b, r.t)
	r.t.end(id, 0)
	r.traced = time.Since(start)
	if err != nil {
		return err
	}
	r.units = 1
	b.op(bytes.Equal(pass.out, basePass.out), "traced pass rendered different output than the untraced pass")
	r.sweepMetrics(pass)
	for _, job := range []string{"stage_tables", "corr_table", "total_tables", "figures", "render"} {
		r.vals["experiments."+job+"_s"] = r.t.totals("experiments." + job).Self.Seconds()
	}

	// Replay every simulated point; keep the costliest fast-engine
	// replication for the observed and statistics replays.
	var best simnet.Config
	var bestRes *simnet.Result
	var bestDur time.Duration
	var bestVisits int64
	for _, sp := range pass.log.fresh() {
		pr := sp.pr
		id := r.t.begin("replay", pr.Point.Label)
		runs := make([]*simnet.Result, len(pr.Runs))
		for i := range pr.Runs {
			cfg := pr.Point.Cfg
			cfg.Seed = simnet.SplitSeed(pr.Seed, uint64(i))
			group := fmt.Sprintf("%s/rep%d", pr.Point.Label, i)
			res, _, dur, err := r.replayRep(group, cfg, pr.Point.Engine)
			if err != nil {
				return err
			}
			b.op(reflect.DeepEqual(res, pr.Runs[i]), "replay of %s differs from the sweep's result", group)
			runs[i] = res
			if v := res.Offered * int64(cfg.Stages); pr.Point.Engine != sweep.Literal && v > bestVisits {
				best, bestRes, bestDur, bestVisits = cfg, res, dur, v
			}
		}
		r.aggregate(pr.Point.Label, runs, pr.Point.Cfg.Stages)
		r.t.end(id, 0)
		if pr.Point.Engine != sweep.Literal {
			r.noteStage1(pr.Point.Cfg, runs)
		}
	}
	tr, err := simnet.GenerateTrace(&best)
	if err != nil {
		return err
	}
	id = r.t.begin("replay", "observed")
	waits := r.observeRep("observed", newObsStack(best.Stages), best, tr, bestRes, bestDur)
	r.replayWaits(waits)
	r.t.end(id, 0)
	return nil
}

// sweepMetrics reads the sweep layer's numbers off a traced pass.
func (r *tracedRun) sweepMetrics(pass *passResult) {
	v := r.vals
	fresh := pass.log.fresh()
	v["sweep.points"] = float64(len(pass.log.points))
	v["sweep.cache_hits"] = float64(pass.runner.Cache.Hits())
	var reps int
	byJob := map[int][]interval{}
	for _, p := range fresh {
		reps += len(p.pr.Runs)
		end := p.done.Sub(r.t.t0)
		byJob[p.job] = append(byJob[p.job], interval{end - time.Duration(p.pr.Cost.WallNS), end})
	}
	v["sweep.reps_simulated"] = float64(reps)
	var batches []batchSchedule
	var tail time.Duration
	for _, ivs := range byJob {
		s := scheduleOf(ivs)
		batches = append(batches, s)
		tail += s.Tail
	}
	v["sweep.utilization"] = utilization(batches, paperParallelism)
	v["sweep.tail_s"] = tail.Seconds()
	v["sweep.journal_bytes"] = float64(pass.journalBytes)
	v["sweep.checkpoint_s"] = r.t.totals("sweep.checkpoint").Self.Seconds()
	v["sweep.ledger_s"] = r.t.totals("sweep.ledger").Self.Seconds()

	// sweep.Key over the whole plan, repeated until it takes 50ms.
	points := make([]sweep.Point, len(pass.log.points))
	for i, p := range pass.log.points {
		points[i] = p.pr.Point
	}
	var calls int64
	start := time.Now()
	id := r.t.begin("sweep.key", "plan")
	for time.Since(start) < 50*time.Millisecond {
		for _, p := range points {
			sweep.Key(p, r.b.seed)
		}
		calls += int64(len(points))
	}
	r.t.end(id, calls)
	k := r.t.totals("sweep.key")
	v["sweep.key_ns_per_point"] = float64(k.Self.Nanoseconds()) / float64(k.Count)
}
