package simnet

import (
	"context"
	"fmt"
	"sync"

	"banyan/internal/stats"
	"banyan/internal/topology"
)

// This file is the topology-true graph engine: it advances messages
// switch by switch through an explicit k-ary n-stage delta network
// (internal/topology's wiring tables) instead of the closed-form omega
// arithmetic the stage model assumes. It runs in one of two modes,
// selected by Config.StageBuffers:
//
//   - Committed mode (all buffers infinite, the default): a message's
//     service start is committed the moment it is routed, exactly like
//     the stage model. This mode is the batch kernel itself (runKernel)
//     routing through the wiring's next-row tables and digit order,
//     with the graph-only work — failure policy, per-switch counters,
//     per-switch wait histograms — in the kernel's general loop. Under
//     the omega wiring it is byte-identical to the stage model at every
//     seed: that is the collapse contract the equivalence battery
//     (TestGraphCollapsesToStageModel, the 5-way FuzzEngineEquivalence)
//     enforces.
//
//   - Blocking mode (any finite StageBuffers entry): a literal
//     cycle-driven walk with backpressure instead of loss, the one
//     graph loop of its own (runGraphBlocking), running on the kernel's
//     arena, RNG and routing data. A message that finds its next queue
//     full stays put, its output port stalls (head-of-line blocking)
//     and the delivery retries every cycle; stage-1 arrivals finding a
//     full queue are held at the source. Messages keep their logical
//     enqueue timestamps while blocked, so per-stage waits still sum to
//     the total delay.
//
// Per-switch telemetry (backlog high-water marks, blocked-cycle counts,
// saturation verdicts) is hash-excluded observability: it flows through
// Config.Probe into the obs layer and into Result.SwitchSat under
// Config.TrackSwitches, and never perturbs a simulated number.

// RunGraph executes the graph engine on a streamed trace.
func RunGraph(cfg *Config) (*Result, error) {
	return RunGraphCtx(context.Background(), cfg)
}

// RunGraphCtx is RunGraph with cancellation, under the RunSourceCtx
// contract: ctx cancellation returns a Truncated partial result plus
// ctx.Err(); the deterministic saturation budgets return a
// Truncated/Unstable result with a nil error.
func RunGraphCtx(ctx context.Context, cfg *Config) (*Result, error) {
	cfg = graphDefaults(cfg)
	src, err := NewTraceStream(cfg, 0)
	if err != nil {
		return nil, err
	}
	wir, err := graphWiring(cfg)
	if err != nil {
		return nil, err
	}
	// The stream is private to this run, so it borrows the arena's
	// block scratch, as RunCtx's does.
	ar := getArena()
	ar.lendBlockScratch(src)
	defer func() {
		ar.harvestBlockScratch(src)
		ar.release()
	}()
	return runGraphOn(ctx, cfg, src, wir, ar)
}

// RunGraphTrace executes the graph engine on a prepared materialized
// trace (e.g. to drive it and a stage-model engine from identical
// traffic).
func RunGraphTrace(cfg *Config, tr *Trace) (*Result, error) {
	return RunGraphSourceCtx(context.Background(), cfg, tr.Source())
}

// RunGraphSource executes the graph engine against an arrival source.
func RunGraphSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunGraphSourceCtx(context.Background(), cfg, src)
}

// graphDefaults returns cfg with the graph engine's Topology default
// (omega) filled in, copying so the caller's Config is never mutated.
func graphDefaults(cfg *Config) *Config {
	if cfg.Topology != "" {
		return cfg
	}
	gcfg := *cfg
	gcfg.Topology = topology.Omega
	return &gcfg
}

// wirings memoizes graphWiring by (kind, k, n): a wiring is immutable
// once built, and building one allocates per row.
var wirings sync.Map // wiringKey → *topology.Wiring

type wiringKey struct {
	kind topology.Kind
	k, n int
}

// graphWiring validates a defaulted graph configuration and returns its
// wiring.
func graphWiring(cfg *Config) (*topology.Wiring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := wiringKey{cfg.Topology, cfg.K, cfg.Stages}
	if w, ok := wirings.Load(key); ok {
		return w.(*topology.Wiring), nil
	}
	w, err := topology.WiringFor(cfg.Topology, cfg.K, cfg.Stages)
	if err != nil {
		return nil, err
	}
	wirings.Store(key, w)
	return w, nil
}

// RunGraphSourceCtx is the graph engine's full entry point.
func RunGraphSourceCtx(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	cfg = graphDefaults(cfg)
	wir, err := graphWiring(cfg)
	if err != nil {
		return nil, err
	}
	return runGraphWired(ctx, cfg, src, wir)
}

// runGraphWired runs the graph engine over an explicit wiring. It is
// the test seam the switch-relabeling metamorphic suite drives with
// relabeled (isomorphic) wirings.
func runGraphWired(ctx context.Context, cfg *Config, src ArrivalSource, wir *topology.Wiring) (*Result, error) {
	ar := getArena()
	defer ar.release()
	return runGraphOn(ctx, cfg, src, wir, ar)
}

// runGraphOn runs either mode on a checked-out arena and renders the
// per-switch verdicts.
func runGraphOn(ctx context.Context, cfg *Config, src ArrivalSource, wir *topology.Wiring, ar *arena) (*Result, error) {
	meta := src.Meta()
	if meta.Wrapped || meta.Rows != wir.Size() {
		return nil, fmt.Errorf("simnet: graph engine needs the full %d-row network, trace has %d rows (wrapped=%v)",
			wir.Size(), meta.Rows, meta.Wrapped)
	}
	g := newGraphNet(cfg, wir)
	run := runKernel
	if cfg.graphBlocking() {
		run = runGraphBlocking
	}
	res, err := run(ctx, cfg, src, ar, g)
	if res != nil && cfg.TrackSwitches {
		res.SwitchSat = g.switchSat(cfg)
	}
	return res, err
}

// graphNet is the graph-only state shared by both modes: the wiring
// (routing runs through the arena's router), switch ownership, the
// failure map and the per-switch telemetry.
type graphNet struct {
	wir  *topology.Wiring
	k    int
	swid [][]int32 // swid[s][row]: switch owning output row at stage s+1

	failed [][]bool // failed[s][row]: output link failed; nil when none
	drop   bool     // failure policy: true = drop, false = reroute

	// Per-switch counters, allocated when tracked (TrackSwitches or a
	// probe): current backlog, its high-water mark, blocked cycles.
	load    [][]int32
	hw      [][]int64
	blocked [][]int64

	swh [][]*stats.Hist // per-(stage, switch) wait hists; may be nil
}

func newGraphNet(cfg *Config, wir *topology.Wiring) *graphNet {
	n, rows := wir.Stages(), wir.Size()
	g := &graphNet{
		wir: wir, k: wir.Radix(),
		swid: make([][]int32, n),
		drop: cfg.FailPolicy != "reroute",
		swh:  cfg.SwitchWaitHists,
	}
	for s := 0; s < n; s++ {
		g.swid[s] = wir.SwitchTable(s + 1)
	}
	if len(cfg.FailLinks) > 0 {
		g.failed = make([][]bool, n)
		for s := range g.failed {
			g.failed[s] = make([]bool, rows)
		}
		for _, f := range cfg.FailLinks {
			g.failed[f.Stage-1][f.Row] = true
		}
	}
	if cfg.TrackSwitches || cfg.Probe != nil {
		sw := rows / g.k
		g.load = make([][]int32, n)
		g.hw = make([][]int64, n)
		g.blocked = make([][]int64, n)
		for s := 0; s < n; s++ {
			g.load[s] = make([]int32, sw)
			g.hw[s] = make([]int64, sw)
			g.blocked[s] = make([]int64, sw)
		}
	}
	return g
}

// reroute applies the failure policy to a message on row whose routed
// output link tbl[row·k+digit] failed (failed is the stage's failure
// map): under reroute it deflects to the next healthy sister port of
// the same switch, in cyclic digit order. ok=false means the message
// is dropped — the policy is drop, or no healthy sister port exists.
func (g *graphNet) reroute(tbl []int32, failed []bool, row int32, digit int) (port int32, ok bool) {
	if g.drop {
		return 0, false
	}
	for off := 1; off < g.k; off++ {
		if p := tbl[int(row)*g.k+(digit+off)%g.k]; !failed[p] {
			return p, true
		}
	}
	return 0, false
}

// swJoin/swLeave maintain the per-switch backlog counters.
func (g *graphNet) swJoin(stage int, port int32) {
	id := g.swid[stage][port]
	v := g.load[stage][id] + 1
	g.load[stage][id] = v
	if int64(v) > g.hw[stage][id] {
		g.hw[stage][id] = int64(v)
	}
}

func (g *graphNet) swLeave(stage int, port int32) {
	g.load[stage][g.swid[stage][port]]--
}

// swBlock charges one blocked cycle to the switch owning the full (or
// stalled-into) output port.
func (g *graphNet) swBlock(stage int, port int32) {
	g.blocked[stage][g.swid[stage][port]]++
}

// switchSat renders the counters into Result.SwitchSat verdicts.
func (g *graphNet) switchSat(cfg *Config) []SwitchStat {
	sd := int64(cfg.satDepth())
	out := make([]SwitchStat, 0, len(g.hw)*len(g.hw[0]))
	for s := range g.hw {
		for id := range g.hw[s] {
			out = append(out, SwitchStat{
				Stage: s + 1, Switch: id,
				HighWater: g.hw[s][id],
				Blocked:   g.blocked[s][id],
				Saturated: g.blocked[s][id] > 0 || g.hw[s][id] >= sd,
			})
		}
	}
	return out
}

// runGraphBlocking is the blocking-mode body: a literal cycle-driven
// walk (RunLiteralSourceCtx's phase structure) with backpressure
// replacing loss. The per-cycle phases are:
//
//  1. retry blocked inter-stage deliveries, in (stage, row) order;
//  2. injections — held stage-1 arrivals plus this cycle's fresh trace
//     arrivals, shuffled together — each entering unless its stage-1
//     queue is full;
//  3. fresh deliveries (messages that started service at t-1), shuffled;
//     a delivery into a full queue parks on its sender port
//     (head-of-line blocking) and rejoins phase 1 next cycle;
//  4. every unstalled free server starts its head-of-line message.
//
// Messages carry logical enqueue timestamps that survive blocking —
// waiting times measure cycles since the message should have joined the
// queue — so per-stage waits sum to the total delay exactly as in
// committed mode, and with effectively-infinite finite buffers the
// statistics collapse to the stage model's.
//
// The loop runs on the kernel's machinery: the arena's slot store (a
// slot is taken when a message is first offered to stage 1, reading the
// schedule block by cursor), its queues and lists, krand's closure-free
// shuffle, and the router's digit extraction.
func runGraphBlocking(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena, g *graphNet) (*Result, error) {
	meta := src.Meta()
	n, rows := meta.Stages, meta.Rows
	res := &Result{Rows: rows, StageWait: make([]stats.Welford, n)}
	trackWaits := cfg.TrackStageWaits
	if trackWaits {
		res.StageCov = stats.NewCovMatrix(n)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, n)
	}
	if cfg.TrackOccupancy {
		res.QueueDepth = make([]stats.Welford, n)
		res.MaxQueueDepth = make([]int, n)
	}

	rng := newKrand(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1)
	resample := cfg.serviceSampler()
	ar.prepare(n, rows, trackWaits)
	ar.prepareBlocking(n, rows)
	rt := ar.wiredRoute(g.wir)
	k := rt.k
	caps := cfg.StageBuffers
	queues, parked := ar.queues, ar.parked
	msl, waits, lit, vec := ar.msl, ar.waits, ar.lit, ar.vec
	track := g.load != nil
	fail := g.failed != nil

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, "graph")
		pc.switchHW = g.hw
		pc.switchBlocked = g.blocked
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	const (
		entered = iota
		droppedOut
		blocked
	)
	// enter attempts to place slot si into its 0-based target stage st,
	// resolving the wiring and the failure policy. The message's logical
	// arrival timestamp is never touched here: it was stamped when the
	// message should have joined (trace arrival, or service start + 1),
	// so blocked retries keep accumulating waiting time.
	enter := func(si int32, st int) int {
		m := &msl[si]
		tbl := rt.next[st]
		digit := rt.digit(st, m.dest)
		port := tbl[int(m.row)*k+digit]
		defl := false
		if fail && g.failed[st][port] {
			var ok bool
			if port, ok = g.reroute(tbl, g.failed[st], m.row, digit); !ok {
				res.Dropped++
				if pc != nil {
					pc.dropSpan(si)
				}
				ar.freeSlots = append(ar.freeSlots, si)
				return droppedOut
			}
			defl = true
		}
		q := &queues[st*rows+int(port)]
		if st < len(caps) && caps[st] > 0 && q.size() >= caps[st] {
			res.BlockedCycles++
			if track {
				g.swBlock(st, port)
			}
			return blocked
		}
		if defl {
			res.Deflected++
		}
		lit[si].stage = int8(st + 1)
		m.row = port
		q.push(si)
		if pc != nil {
			pc.enter(st)
		}
		if track {
			g.swJoin(st, port)
		}
		return entered
	}

	// Current schedule block, consumed by cursor as in the kernel: every
	// message is offered to stage 1 at its arrival cycle, so a block is
	// used up before the next pull.
	var blkT, blkIn []int32
	var blkDest []uint32
	var blkSvc []int16
	var blkMeas []bool
	cur, blkLen := 0, 0

	inNetwork := int64(0)
	exhausted := false
	covered := int64(0)
	maxInFlight := cfg.maxInFlight()
	drainLimit := cfg.drainLimit(meta.Horizon)
	for ; ; t++ {
		if err := pollCycle(ctx, cfg, pc, t); err != nil {
			res.truncate(t, false)
			return res, err
		}
		if inNetwork+int64(len(ar.held)) > maxInFlight {
			res.truncate(t, true)
			return res, nil
		}
		for !exhausted && covered <= t {
			blk, err := src.Next()
			if err != nil {
				return nil, err
			}
			if blk == nil {
				exhausted = true
				break
			}
			if pc != nil {
				pc.blockPulls++
			}
			covered = int64(blk.End)
			res.Offered += int64(blk.Len())
			blkT, blkIn, blkDest, blkSvc, blkMeas = blk.T, blk.In, blk.Dest, blk.Svc, blk.Meas
			cur, blkLen = 0, blk.Len()
		}

		// 1. Blocked deliveries retry first, in (stage, row) order: a
		// parked message has priority over this cycle's fresh traffic
		// into the same queue.
		for s := 0; s < n-1; s++ {
			ps := parked[s*rows : (s+1)*rows]
			for r, si := range ps {
				if si < 0 {
					continue
				}
				switch enter(si, s+1) {
				case entered:
					ps[r] = -1
					if track {
						g.swLeave(s, int32(r))
					}
				case droppedOut:
					ps[r] = -1
					if track {
						g.swLeave(s, int32(r))
					}
					inNetwork--
				}
			}
		}

		// 2. Injections: held arrivals and this cycle's fresh trace
		// arrivals compete in one shuffled batch.
		batch := append(ar.batch[:0], ar.held...)
		ar.held = ar.held[:0]
		for cur < blkLen && int64(blkT[cur]) == t {
			si := ar.slot(cfg.Fault, pc, n, trackWaits)
			msl, waits = ar.msl, ar.waits
			if len(lit) < len(msl) {
				ar.lit = growCopy(ar.lit, len(msl))
				lit = ar.lit
			}
			msl[si] = mrec{dest: blkDest[cur], row: blkIn[cur], svc: blkSvc[cur], meas: blkMeas[cur]}
			lit[si] = litRec{at: blkT[cur]}
			if pc != nil {
				pc.admit(si, blkMeas[cur], t, blkDest[cur])
			}
			batch = append(batch, si)
			cur++
		}
		ar.batch = batch
		rng.shuffle(batch)
		for _, si := range batch {
			switch enter(si, 0) {
			case entered:
				inNetwork++
				if pc != nil {
					pc.active(inNetwork)
				}
			case blocked:
				ar.held = append(ar.held, si)
			}
		}

		// 3. Fresh deliveries (service started at t-1) enter their next
		// stage; a full queue parks the message on its sender port.
		fresh := ar.deliv[t&1]
		ar.deliv[t&1] = fresh[:0]
		rng.shuffle(fresh)
		for _, si := range fresh {
			st := int(lit[si].stage) // 0-based target = 1-based current
			switch enter(si, st) {
			case droppedOut:
				inNetwork--
			case blocked:
				row := msl[si].row
				parked[(st-1)*rows+int(row)] = si
				if track {
					g.swJoin(st-1, row) // parked on the sender port
				}
			}
		}

		// 4. Service: every free, unstalled server starts its
		// head-of-line message.
		for s := 0; s < n; s++ {
			qs := queues[s*rows : (s+1)*rows]
			var ps []int32
			if s < n-1 {
				ps = parked[s*rows : (s+1)*rows]
			}
			for r := range qs {
				q := &qs[r]
				if q.freeAt > t || q.size() == 0 {
					continue
				}
				if ps != nil && ps[r] >= 0 {
					// Head-of-line blocking: the port's previous message
					// is still parked awaiting downstream space.
					continue
				}
				si := q.pop()
				if pc != nil {
					pc.leave(s, 1)
				}
				if track {
					g.swLeave(s, int32(r))
				}
				m, l := &msl[si], &lit[si]
				w := int32(t) - l.at
				m.wsum += w
				if m.meas {
					res.StageWait[s].Add(float64(w))
					if res.HotWait != nil && m.dest == 0 {
						res.HotWait[s].Add(float64(w))
					}
					if wh != nil {
						wh[s].Add(int(w))
					}
					if g.swh != nil {
						g.swh[s][g.swid[s][r]].Add(int(w))
					}
				}
				if trackWaits {
					waits[int(si)*n+s] = int16(w)
				}
				svc := int64(m.svc)
				if resample != nil {
					svc = int64(resample.Sample(rng.Float64(), rng.Float64()))
				}
				q.freeAt = t + svc
				if pc != nil {
					pc.stageObs(si, s, m.meas, int64(l.at), t, t+svc)
				}
				if s+1 < n {
					// Stamp the logical arrival at the next stage now:
					// delivery is due at t+1 (cut-through) and blocked
					// retries must keep accruing wait from that cycle.
					l.at = int32(t + 1)
					ar.deliv[(t+1)&1] = append(ar.deliv[(t+1)&1], si)
					continue
				}
				if fail && m.row != int32(m.dest) {
					res.Misrouted++
				}
				if m.meas {
					res.Messages++
					res.TotalWait.Add(int(m.wsum))
					if res.StageCov != nil {
						base := int(si) * n
						for j := 0; j < n; j++ {
							vec[j] = float64(waits[base+j])
						}
						res.StageCov.Add(vec)
					}
				}
				if pc != nil {
					pc.finishObs(si, m.meas, int64(m.wsum))
				}
				ar.freeSlots = append(ar.freeSlots, si)
				inNetwork--
			}
		}

		if cfg.TrackOccupancy && t >= int64(cfg.Warmup) && t < int64(meta.Horizon) {
			for s := 0; s < n; s++ {
				qs := queues[s*rows : (s+1)*rows]
				for r := range qs {
					occ := qs[r].size()
					if qs[r].freeAt > t {
						occ++
					}
					res.QueueDepth[s].Add(float64(occ))
					if occ > res.MaxQueueDepth[s] {
						res.MaxQueueDepth[s] = occ
					}
				}
			}
		}

		if exhausted && cur == blkLen && len(ar.held) == 0 && inNetwork == 0 {
			break
		}
		if t > drainLimit {
			res.truncate(t, true)
			return res, nil
		}
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages completed")
	}
	return res, nil
}
