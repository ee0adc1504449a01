package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"banyan/internal/core"
	"banyan/internal/experiments"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stats"
	"banyan/internal/sweep"
	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// unitSample is the cost of one timed unit of a workload: a pass over
// the paper for paper-quick, one replication for the kernel workloads,
// one committed+blocking replication pair for graph-hotspot.
type unitSample struct {
	Wall, CPU  time.Duration
	AllocBytes int64
	Visits     int64   // stage visits simulated: Σ Offered × Stages
	PeakRSSMB  float64 // the process's peak resident set once the unit ended
}

// timeUnits runs unit(0), unit(1), … until the timed phase has lasted
// b.seconds and at least minUnits units have run.
func timeUnits(b *bench, minUnits int, unit func(i int) (unitSample, error)) ([]unitSample, error) {
	var out []unitSample
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start).Seconds() < b.seconds; i++ {
		s, err := unit(i)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s unit %d: wall %.4fs cpu %.4fs alloc %.2fMB rss %.1fMB visits %d\n",
			b.name, i, s.Wall.Seconds(), s.CPU.Seconds(), float64(s.AllocBytes)/mb, s.PeakRSSMB, s.Visits)
		out = append(out, s)
	}
	return out, nil
}

// inProcess times a unit that runs in this process; run returns the
// stage visits it simulated.
func inProcess(run func(i int) (visits int64, err error)) func(i int) (unitSample, error) {
	return func(i int) (unitSample, error) {
		h0, c0, t0 := readHeap(), cpuTime(), time.Now()
		v, err := run(i)
		wall := time.Since(t0)
		c1, h1 := cpuTime(), readHeap()
		return unitSample{Wall: wall, CPU: c1 - c0, AllocBytes: int64(h1.AllocBytes - h0.AllocBytes),
			Visits: v, PeakRSSMB: peakRSSMB()}, err
	}
}

// ---- kernel-ref and kernel-observed ----

// refConfig is replication i of the reference config: k=2, 8 stages
// (256 rows), ρ=0.5, unit service, uniform traffic, 20k measured cycles.
func refConfig(seed uint64, i int) simnet.Config {
	return simnet.Config{K: 2, Stages: 8, P: 0.5, Cycles: 20000, Warmup: 500,
		Seed: simnet.SplitSeed(seed, uint64(i))}
}

// kernelMinReps keeps the across-replication standard error of the
// stage-1 check meaningful on a short run.
const kernelMinReps = 12

func kernelRef(b *bench) ([]unitSample, error) {
	ctx := context.Background()
	var means, vars []float64
	samples, err := timeUnits(b, kernelMinReps, inProcess(func(i int) (int64, error) {
		cfg := refConfig(b.seed, i)
		res, err := simnet.RunCtx(ctx, &cfg)
		if !b.op(err == nil && !res.Truncated, "replication %d: err=%v", i, err) {
			return 0, nil
		}
		means = append(means, res.StageWait[0].Mean())
		vars = append(vars, res.StageWait[0].Variance())
		return res.Offered * int64(cfg.Stages), nil
	}))
	if err != nil {
		return nil, err
	}
	an, err := stage1Analysis(refConfig(b.seed, 0))
	if err != nil {
		return nil, err
	}
	checkWithin(b, "stage-1 mean wait", means, an.MeanWait())
	checkWithin(b, "stage-1 wait variance", vars, an.VarWait())
	return samples, nil
}

// checkWithin checks that the across-replication mean of xs lies within
// four standard errors of the exact value.
func checkWithin(b *bench, what string, xs []float64, exact float64) {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	se := math.Sqrt(w.SampleVariance() / float64(w.N()))
	b.op(w.N() >= 2 && math.Abs(w.Mean()-exact) <= 4*se,
		"%s %.6g over %d replications is not within 4 SE (%.3g) of Theorem 1's %.6g", what, w.Mean(), w.N(), se, exact)
}

// stage1Analysis returns Theorem 1's exact analysis of a config's first
// stage, or an error when the paper has no model for it.
func stage1Analysis(cfg simnet.Config) (*core.Analysis, error) {
	if cfg.Burst != nil || cfg.BufferCap > 0 {
		return nil, fmt.Errorf("no Theorem 1 model for bursty or finite-buffer configs")
	}
	b := cfg.Bulk
	if b < 1 {
		b = 1
	}
	var arr traffic.Arrivals
	var err error
	switch {
	case cfg.HotModule > 0:
		arr, err = traffic.HotModule(cfg.K, cfg.P, cfg.HotModule, b)
	case cfg.Q > 0:
		arr, err = traffic.NonuniformExclusive(cfg.K, cfg.P, cfg.Q, b)
	case b > 1:
		arr, err = traffic.Bulk(cfg.K, cfg.K, cfg.P, b)
	default:
		arr, err = traffic.Uniform(cfg.K, cfg.K, cfg.P)
	}
	if err != nil {
		return nil, err
	}
	svc := cfg.Service
	if svc.PMF().Support() == 0 {
		svc = traffic.UnitService()
	}
	return core.New(arr, svc)
}

// obsStack is the always-on observability stack of kernel-observed: a
// probe with live histograms and a 1-in-64 tracer, exact per-stage wait
// histograms, the drift monitor, and the OpenMetrics exposition.
type obsStack struct {
	reg   *obs.Registry
	probe *obs.SimProbe
	drift *sweep.DriftMonitor
	fams  []obs.HistFamily
	page  bytes.Buffer
}

func newObsStack(stages int) *obsStack {
	s := &obsStack{reg: obs.NewRegistry(), probe: obs.NewSimProbe(), drift: &sweep.DriftMonitor{}}
	s.probe.Hists = obs.NewHistSet()
	s.probe.Tracer = obs.NewTracer(64, 0)
	s.probe.Register(s.reg)
	s.probe.Hists.Register(s.reg, "wait")
	s.drift.Register(s.reg)
	const help = "waiting time per measured message, in cycles"
	s.fams = []obs.HistFamily{{Name: "wait_cycles", Help: help,
		Labels: map[string]string{"stage": "total"}, Hist: s.probe.Hists.Total()}}
	for i, h := range s.probe.Hists.Stages(stages) {
		s.fams = append(s.fams, obs.HistFamily{Name: "wait_cycles", Help: help,
			Labels: map[string]string{"stage": strconv.Itoa(i + 1)}, Hist: h})
	}
	return s
}

// attach returns cfg with the probe and fresh exact per-stage histograms
// attached.
func (s *obsStack) attach(cfg simnet.Config) simnet.Config {
	cfg.Probe = s.probe
	cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
	for i := range cfg.WaitHists {
		cfg.WaitHists[i] = &stats.Hist{}
	}
	return cfg
}

// expose renders the registry and histograms as an OpenMetrics page.
func (s *obsStack) expose() error {
	s.page.Reset()
	return obs.WriteOpenMetrics(&s.page, s.reg, s.fams)
}

// validate parses the last page with the strict OpenMetrics parser.
func (s *obsStack) validate() error {
	_, err := obs.ParseOpenMetrics(bytes.NewReader(s.page.Bytes()))
	return err
}

// identicalCheckReps is how many kernel-observed replications are re-run
// bare to check that observability leaves Results bit-identical.
const identicalCheckReps = 2

func kernelObserved(b *bench) ([]unitSample, error) {
	ctx := context.Background()
	stack := newObsStack(8)
	var kept []*simnet.Result
	samples, err := timeUnits(b, identicalCheckReps, inProcess(func(i int) (int64, error) {
		cfg := stack.attach(refConfig(b.seed, i))
		res, err := simnet.RunCtx(ctx, &cfg)
		if !b.op(err == nil && !res.Truncated, "replication %d: err=%v", i, err) {
			return 0, nil
		}
		rep, err := stack.drift.Check(&cfg, cfg.WaitHists)
		b.op(err == nil && !rep.Drifted, "replication %d drift check: err=%v drifted=%v", i, err, rep != nil && rep.Drifted)
		if err := stack.expose(); err != nil {
			return 0, err
		}
		if i < identicalCheckReps {
			kept = append(kept, res)
		}
		return res.Offered * int64(cfg.Stages), nil
	}))
	if err != nil {
		return nil, err
	}
	verr := stack.validate()
	b.op(verr == nil, "OpenMetrics page does not parse: %v", verr)
	for i, obsRes := range kept {
		cfg := refConfig(b.seed, i)
		bare, err := simnet.RunCtx(ctx, &cfg)
		b.op(err == nil && reflect.DeepEqual(bare, obsRes),
			"replication %d: observed Result differs from the bare kernel's (err=%v)", i, err)
	}
	return samples, nil
}

// kernelReady sets a kernel workload up to the point where its first
// replication would start.
func kernelReady(b *bench, observed bool) (time.Time, error) {
	cfg := refConfig(b.seed, 0)
	if observed {
		cfg = newObsStack(cfg.Stages).attach(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return time.Time{}, err
	}
	return time.Now(), nil
}

// ---- graph-hotspot ----

// hotStageBuffer is the per-stage output-queue bound of blocking mode.
const hotStageBuffer = 4

// hotConfig is replication i of graph-hotspot: the omega graph with
// k=2, 8 stages, p=0.4 and a hot module at h=0.004, about 68% of the
// tree-saturation threshold h* = (1-p)/(p(N-1)) ≈ 0.0059. Blocking mode
// bounds every stage's queues; committed mode leaves them infinite.
func hotConfig(seed uint64, i int, blocking bool) simnet.Config {
	cfg := simnet.Config{K: 2, Stages: 8, P: 0.4, HotModule: 0.004, Cycles: 20000, Warmup: 500,
		Topology: topology.Omega, TrackSwitches: true, Seed: simnet.SplitSeed(seed, uint64(i))}
	if blocking {
		cfg.StageBuffers = make([]int, cfg.Stages)
		for s := range cfg.StageBuffers {
			cfg.StageBuffers[s] = hotStageBuffer
		}
	}
	return cfg
}

func graphHotspot(b *bench) ([]unitSample, error) {
	ctx := context.Background()
	return timeUnits(b, 2, inProcess(func(i int) (int64, error) {
		ccfg, bcfg := hotConfig(b.seed, i, false), hotConfig(b.seed, i, true)
		committed, cerr := simnet.RunGraphCtx(ctx, &ccfg)
		blocking, berr := simnet.RunGraphCtx(ctx, &bcfg)
		if !b.op(cerr == nil && !committed.Truncated, "replication %d committed: err=%v", i, cerr) ||
			!b.op(berr == nil && !blocking.Truncated, "replication %d blocking: err=%v", i, berr) {
			return 0, nil
		}
		checkGraphPair(b, i, committed, blocking)
		return (committed.Offered + blocking.Offered) * int64(ccfg.Stages), nil
	}))
}

// checkGraphPair checks one graph-hotspot replication pair: per-stage
// waits sum to the total in both modes, blocking mode drops nothing, and
// both modes measure and offer the same messages.
func checkGraphPair(b *bench, i int, committed, blocking *simnet.Result) {
	for _, m := range []struct {
		mode string
		res  *simnet.Result
	}{{"committed", committed}, {"blocking", blocking}} {
		var sum float64
		for s := range m.res.StageWait {
			sum += m.res.StageWait[s].Mean()
		}
		total := m.res.TotalWait.Mean()
		b.op(math.Abs(sum-total) <= 1e-9*math.Max(1, total),
			"replication %d %s: stage waits sum to %.12g, total is %.12g", i, m.mode, sum, total)
	}
	b.op(blocking.Dropped == 0, "replication %d blocking dropped %d messages", i, blocking.Dropped)
	b.op(blocking.Messages == committed.Messages && blocking.Offered == committed.Offered,
		"replication %d: blocking measured %d of %d offered, committed %d of %d",
		i, blocking.Messages, blocking.Offered, committed.Messages, committed.Offered)
}

func graphReady(b *bench) (time.Time, error) {
	for _, blocking := range []bool{false, true} {
		cfg := hotConfig(b.seed, 0, blocking)
		if err := cfg.Validate(); err != nil {
			return time.Time{}, err
		}
	}
	return time.Now(), nil
}

// ---- paper-quick ----

type renderer interface{ Render(io.Writer) error }

func wrap[T renderer](f func(experiments.Scale) (T, error)) func(experiments.Scale) (renderer, error) {
	return func(sc experiments.Scale) (renderer, error) {
		v, err := f(sc)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// paperJobs is the paper in regeneration order, each constructor tagged
// with the experiments span it is timed under.
var paperJobs = []struct {
	name, layer string
	run         func(experiments.Scale) (renderer, error)
}{
	{"Table I", "experiments.stage_tables", wrap(experiments.TableI)},
	{"Table II", "experiments.stage_tables", wrap(experiments.TableII)},
	{"Table III", "experiments.stage_tables", wrap(experiments.TableIII)},
	{"Table IV", "experiments.stage_tables", wrap(experiments.TableIV)},
	{"Table V", "experiments.stage_tables", wrap(experiments.TableV)},
	{"Table VI", "experiments.corr_table", wrap(experiments.TableVI)},
	{"Table VII", "experiments.total_tables", wrap(experiments.TableVII)},
	{"Table VIII", "experiments.total_tables", wrap(experiments.TableVIII)},
	{"Table IX", "experiments.total_tables", wrap(experiments.TableIX)},
	{"Table X", "experiments.total_tables", wrap(experiments.TableX)},
	{"Table XI", "experiments.total_tables", wrap(experiments.TableXI)},
	{"Table XII", "experiments.total_tables", wrap(experiments.TableXII)},
	{"Figure 3", "experiments.figures", wrap(experiments.Figure3)},
	{"Figure 4", "experiments.figures", wrap(experiments.Figure4)},
	{"Figure 5", "experiments.figures", wrap(experiments.Figure5)},
	{"Figure 6", "experiments.figures", wrap(experiments.Figure6)},
	{"Figure 7", "experiments.figures", wrap(experiments.Figure7)},
	{"Figure 8", "experiments.figures", wrap(experiments.Figure8)},
}

// paperParallelism is the sweep worker count of paper-quick.
const paperParallelism = 2

// settledPoint is one point the runner settled, with the wall-clock time
// it settled at and the job that asked for it.
type settledPoint struct {
	pr   *sweep.PointResult
	done time.Time
	job  int
}

// pointLog is the pass's sweep.Reporter: it timestamps every settled
// point and, when tracing, records each freshly simulated point as a
// span under the job that ran it.
type pointLog struct {
	job    atomic.Int32
	tracer *tracer

	mu     sync.Mutex
	points []settledPoint
}

func (l *pointLog) PointDone(pr *sweep.PointResult, _ sweep.Progress) {
	now := time.Now()
	if pr.Cost != nil {
		l.tracer.addDone("sweep.point", pr.Point.Label, now.Add(-time.Duration(pr.Cost.WallNS)), now)
	}
	l.mu.Lock()
	l.points = append(l.points, settledPoint{pr: pr, done: now, job: int(l.job.Load())})
	l.mu.Unlock()
}

// fresh returns the points this pass simulated (not served from the
// cache or aliased), in settle order.
func (l *pointLog) fresh() []settledPoint {
	var out []settledPoint
	for _, p := range l.points {
		if p.pr.Cost != nil && p.pr.Err == nil {
			out = append(out, p)
		}
	}
	return out
}

// passResult is what one paper-quick pass leaves for checks and traces.
type passResult struct {
	out          []byte // every table and figure, rendered
	log          *pointLog
	runner       *sweep.Runner
	journalBytes int64
}

// newPaperRunner builds the pass's shared runner: point cache, 2 workers,
// a checkpoint journal in a fresh directory, a ledger collector and the
// settled-point log. The caller removes dir.
func newPaperRunner(b *bench, t *tracer) (sc experiments.Scale, log *pointLog, dir string, err error) {
	dir, err = os.MkdirTemp(b.work, "journal-")
	if err != nil {
		return sc, nil, "", err
	}
	sc = experiments.Quick()
	sc.Seed = b.seed
	sc.Parallelism = paperParallelism
	sc.Runner = sc.NewRunner()
	j, err := sweep.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup; the open error is the one reported
		return sc, nil, "", err
	}
	log = &pointLog{tracer: t}
	sc.Runner.Journal = j
	sc.Runner.Ledger = sweep.NewLedgerCollector()
	sc.Runner.Reporter = log
	return sc, log, dir, nil
}

// paperPass regenerates every table and figure on one fresh runner,
// then compacts the journal and builds the run ledger, as the CLIs do at
// exit. With a tracer, each constructor, render, checkpoint and ledger
// call is a span.
func paperPass(b *bench, t *tracer) (*passResult, error) {
	sc, log, dir, err := newPaperRunner(b, t)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch directory under .bench_build
	var out bytes.Buffer
	for i, job := range paperJobs {
		log.job.Store(int32(i))
		id := t.begin(job.layer, job.name)
		r, err := job.run(sc)
		t.end(id, 0)
		if !b.op(err == nil, "%s: %v", job.name, err) {
			continue
		}
		id = t.begin("experiments.render", job.name)
		err = r.Render(&out)
		t.end(id, 0)
		b.op(err == nil, "%s: render: %v", job.name, err)
	}
	j := sc.Runner.Journal
	id := t.begin("sweep.checkpoint", "")
	cerr := j.Checkpoint()
	if err := j.Close(); cerr == nil {
		cerr = err
	}
	t.end(id, 0)
	b.op(cerr == nil, "journal checkpoint: %v", cerr)
	st, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	id = t.begin("sweep.ledger", "")
	led := sc.Runner.BuildLedger()
	lerr := led.WriteJSON(io.Discard)
	t.end(id, 0)
	b.op(lerr == nil, "ledger JSON: %v", lerr)
	b.op(led.Reconciled, "run ledger does not reconcile: %s", led.Note)
	return &passResult{out: out.Bytes(), log: log, runner: sc.Runner, journalBytes: st.Size()}, nil
}

// freshVisits counts the stage visits a pass simulated.
func freshVisits(log *pointLog) int64 {
	var v int64
	for _, p := range log.fresh() {
		for _, res := range p.pr.Runs {
			v += res.Offered * int64(p.pr.Point.Cfg.Stages)
		}
	}
	return v
}

// passReport is what a paper-quick pass process reports to its parent.
type passReport struct {
	Sample            unitSample
	OutputSHA256      string // of every rendered table and figure
	Attempted, Failed int64
}

// paperMinPasses lets the median of a run outvote one pass a burst of
// load from outside slowed down.
const paperMinPasses = 3

// paperQuick runs each pass in a fresh process, as a user regenerating
// the paper does, so every pass starts cold.
func paperQuick(b *bench) ([]unitSample, error) {
	var first string
	return timeUnits(b, paperMinPasses, func(i int) (unitSample, error) {
		out, err := child("-root", b.root, "-workload", b.name, "-seed", strconv.FormatUint(b.seed, 10), "-pass").Output()
		if err != nil {
			return unitSample{}, fmt.Errorf("pass %d: %w", i, err)
		}
		var rep passReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return unitSample{}, fmt.Errorf("pass %d reported %q: %w", i, out, err)
		}
		b.attempted += rep.Attempted
		b.failed += rep.Failed
		if i == 0 {
			first = rep.OutputSHA256
		} else {
			b.op(rep.OutputSHA256 == first, "pass %d rendered different tables or figures than pass 0", i)
		}
		return rep.Sample, nil
	})
}

// runPass is a paper-quick pass process: one pass, reported as JSON.
func runPass(b *bench) error {
	var sha string
	s, err := inProcess(func(int) (int64, error) {
		pass, err := paperPass(b, nil)
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256(pass.out)
		sha = hex.EncodeToString(sum[:])
		return freshVisits(pass.log), nil
	})(0)
	if err != nil {
		return err
	}
	line, err := json.Marshal(passReport{Sample: s, OutputSHA256: sha, Attempted: b.attempted, Failed: b.failed})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// startSignal is an event sink that notes when the runner starts its
// first point and then cancels the run.
type startSignal struct {
	once   sync.Once
	at     time.Time
	cancel context.CancelFunc
}

func (s *startSignal) Emit(ev obs.Event) {
	if ev.Event == obs.EventPointStarted {
		s.once.Do(func() {
			s.at = time.Now()
			s.cancel()
		})
	}
}

// paperQuickReady sets paper-quick up and starts Table I, stopping the
// run as soon as the runner picks up its first point.
func paperQuickReady(b *bench) (time.Time, error) {
	sc, _, dir, err := newPaperRunner(b, nil)
	if err != nil {
		return time.Time{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch directory under .bench_build
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := &startSignal{cancel: cancel}
	sc.Ctx = ctx
	sc.Runner.Events = sig
	_, _ = experiments.TableI(sc) // cancelled on purpose at the first point
	if err := sc.Runner.Journal.Close(); err != nil {
		return time.Time{}, err
	}
	if sig.at.IsZero() {
		return time.Time{}, fmt.Errorf("paper-quick: Table I started no point")
	}
	return sig.at, nil
}
