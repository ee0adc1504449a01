package simnet

import (
	"context"
	"fmt"
	"math/bits"

	"banyan/internal/dist"
	"banyan/internal/stats"
)

// maxLaneWidth bounds the auto lane heuristic: beyond 8 lanes the
// independent per-lane dependency chains exceed what one core can keep
// in flight, and the shared working set starts spilling cache.
const maxLaneWidth = 8

// DefaultLaneWidth returns the lane count the auto heuristic picks for
// running reps replications of cfg in lock-step: the largest power of
// two not exceeding the replication count, capped at maxLaneWidth and
// shrunk until the per-lane port tables fit the arena retention budget
// (so a huge topology does not make every laned run allocate scratch
// the pool then refuses to keep).
func DefaultLaneWidth(cfg *Config, reps int) int {
	w := 1
	for 2*w <= reps && 2*w <= maxLaneWidth {
		w *= 2
	}
	if rows, _, err := cfg.rows(); err == nil {
		for w > 1 && w*cfg.Stages*rows > maxRetainPorts {
			w /= 2
		}
	}
	return w
}

// laneRun is one lane's private replication state: everything the
// scalar kernel keeps in locals, one copy per lane. The shared loop in
// runLanes advances all lanes through one clock; each lane draws from
// its own krand substream and owns its own result, so it is bit-
// identical to a scalar run of the same configuration and seed.
type laneRun struct {
	cfg *Config
	src *TraceStream
	rng *krand
	res *Result
	err error
	pc  *runProbe
	wh  []*stats.Hist

	freeSlots []int32 // recycled slots, popped LIFO like the scalar free list
	used      int     // lane-local slots handed out this run

	inFlight  int64
	active    int64
	exhausted bool
	covered   int64
	done      bool

	// Current schedule block, consumed by cursor (see runKernel).
	blkT, blkIn []int32
	blkDest     []uint32
	blkSvc      []int16
	blkMeas     []bool
	cur, blkLen int
}

// RunLanes executes len(cfgs) replications in lock-step lanes; see
// RunLanesCtx.
func RunLanes(cfgs []*Config) ([]*Result, []error) {
	return RunLanesCtx(context.Background(), cfgs)
}

// RunLanesCtx advances W = len(cfgs) replications of one configuration
// through a single cycle loop — W lanes in lock-step — and returns one
// (Result, error) pair per lane, index-aligned with cfgs. The cfgs must
// be identical except for Seed, Antithetic, WaitHists and Probe: one clock, one
// topology, one set of guards drives all lanes, while each lane owns
// its trace stream, its kernel RNG, its network state and its result.
//
// Every lane is bit-identical to the scalar engine at the same seed:
// same RNG draw sequence, same statistics update order, same truncation
// decisions, same probe counter totals. Lanes exist to amortize the
// per-replication fixed costs — engine setup, arena cache round-trips,
// the service-distribution alias table, idle-gap skipping — across
// replications sharing one clock, not to change a single bit of any
// replication's output.
//
// Per-lane outcomes mirror the scalar contract: a saturation truncation
// is a successful measurement (Truncated Result, nil error); a
// cancelled run returns its partial Result alongside ctx.Err(); a lane
// that measures no messages reports the scalar engine's error. A lane's
// early exit never perturbs its siblings — they keep running to their
// own completions.
func RunLanesCtx(ctx context.Context, cfgs []*Config) ([]*Result, []error) {
	nl := len(cfgs)
	results := make([]*Result, nl)
	errs := make([]error, nl)
	if nl == 0 {
		return results, errs
	}
	failAll := func(err error) ([]*Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return failAll(err)
		}
		if err := cfg.requireStageModel("lanes"); err != nil {
			return failAll(err)
		}
	}

	la := getLanesArena()
	defer la.release()

	lanes := make([]laneRun, nl)
	streams := make([]*TraceStream, nl)
	var sharedSampler *dist.Sampler
	for l := range cfgs {
		src, err := newTraceStreamSampler(cfgs[l], 0, sharedSampler)
		if err != nil {
			return failAll(err)
		}
		if l == 0 {
			sharedSampler = src.sampler
		}
		streams[l] = src
	}

	cfg0 := cfgs[0]
	meta := streams[0].Meta()
	n := meta.Stages
	rowsN := meta.Rows
	trackWaits := cfg0.TrackStageWaits
	resample := cfg0.serviceSampler()
	la.prepare(nl, n, rowsN, trackWaits)
	for l := range lanes {
		ln := &lanes[l]
		cfg := cfgs[l]
		la.lendBlockScratch(l, streams[l])
		ln.cfg = cfg
		ln.src = streams[l]
		ln.rng = newKrand(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1)
		ln.res = &Result{
			Rows:      rowsN,
			Wrapped:   meta.Wrapped,
			StageWait: make([]stats.Welford, n),
		}
		if trackWaits {
			ln.res.StageCov = stats.NewCovMatrix(n)
		}
		if cfg.HotModule > 0 {
			ln.res.HotWait = make([]stats.Welford, n)
		}
		if cfg.Probe != nil {
			ln.pc = newRunProbe(cfg, n, "fast")
		}
		ln.wh = cfg.WaitHists
		ln.freeSlots = la.freeSlots[l][:0]
	}
	defer func() {
		for l := range lanes {
			la.freeSlots[l] = lanes[l].freeSlots
			la.harvestBlockScratch(l, streams[l])
		}
	}()

	// Routing arithmetic: the closed-form omega step (runKernel reads the
	// same rows from its shared table).
	k := meta.K
	pow2 := k&(k-1) == 0
	var logk uint
	var kmask uint32
	var rowMask int32
	var shifts []uint
	if pow2 {
		logk = uint(bits.TrailingZeros32(uint32(k)))
		kmask = uint32(k - 1)
		rowMask = int32(rowsN - 1)
		shifts = make([]uint, n)
		for j := 0; j < n; j++ {
			shifts[j] = logk * uint(n-1-j)
		}
	}

	// fastBody needs every lane plain: one instrumented lane forces the
	// general loop for all, because the lock-step interleave cannot mix
	// specialized and instrumented message bodies.
	fastBody := resample == nil && !trackWaits && cfg0.HotModule <= 0
	for l := range lanes {
		if lanes[l].pc != nil || lanes[l].wh != nil {
			fastBody = false
		}
	}

	// Lane l's ring for stage s+2 is rings[l*(n-1)+s]: each lane owns a
	// full scalar set of schedule rings, so takes and pushes need no
	// cross-lane partitioning and happen in exactly the scalar order.
	rings := la.rings[:nl*(n-1)]
	vec := la.vec
	maxInFlight := cfg0.maxInFlight()
	drainLimit := cfg0.drainLimit(meta.Horizon)

	live := nl
	var t int64

	// Chaos injection is consulted only when some lane arms it, so the
	// fault-free hot loop pays one boolean test per cycle.
	anyFault := false
	for _, cfg := range cfgs {
		if cfg.Fault != nil {
			anyFault = true
			break
		}
	}

	// finish retires a lane at cycle tc: flushes its probe (mirroring
	// the scalar engine's deferred flush, which runs on every exit path
	// while the Result is still reachable) and removes it from the live
	// set. The caller has already set the lane's terminal res/err state.
	finish := func(ln *laneRun, tc int64) {
		ln.done = true
		live--
		if ln.pc != nil {
			ln.pc.flush(ln.cfg.Probe, tc, ln.res)
		}
	}

	for ; ; t++ {
		if anyFault {
			// Per-lane injection points, then the group seam: a LaneFail
			// armed on any live lane fails the whole lock-step group with
			// one typed error, modelling the group sharing one fate (one
			// clock, one arena, one goroutine). The sweep's degradation
			// path then reruns each lane as a scalar replication, which
			// never consults LaneGroup — so the retry recovers.
			var groupErr error
			for l := range lanes {
				ln := &lanes[l]
				if ln.done || ln.cfg.Fault == nil {
					continue
				}
				if err := ln.cfg.Fault.LaneGroup(t); err != nil {
					groupErr = err
					break
				}
				if err := ln.cfg.Fault.AtCycle(ctx, t); err != nil {
					ln.res.truncate(t, false)
					ln.err = err
					finish(ln, t)
				}
			}
			if groupErr != nil {
				for l := range lanes {
					ln := &lanes[l]
					if ln.done {
						continue
					}
					ln.res.truncate(t, false)
					ln.err = groupErr
					finish(ln, t)
				}
				break
			}
			if live == 0 {
				break
			}
		}
		if t&ctxCheckMask == 0 {
			for l := range lanes {
				if ln := &lanes[l]; !ln.done && ln.pc != nil {
					ln.pc.tick(ln.cfg.Probe, t)
				}
			}
			if err := ctx.Err(); err != nil {
				for l := range lanes {
					ln := &lanes[l]
					if ln.done {
						continue
					}
					ln.res.truncate(t, false)
					ln.err = err
					finish(ln, t)
				}
				break
			}
		}
		allIdle := true
		minCovered := int64(-1)
		for l := range lanes {
			ln := &lanes[l]
			if ln.done {
				continue
			}
			if ln.active > maxInFlight || t > drainLimit {
				// The scalar saturation guards, fired lane-locally: the
				// backlog guard watches this lane's own population; the
				// drain guard is shared (one clock, one budget).
				ln.res.truncate(t, true)
				finish(ln, t)
				continue
			}
			for !ln.exhausted && ln.covered <= t {
				blk, err := ln.src.Next()
				if err != nil {
					finish(ln, t)
					ln.res, ln.err = nil, err
					break
				}
				if blk == nil {
					ln.exhausted = true
					break
				}
				if ln.pc != nil {
					ln.pc.blockPulls++
				}
				ln.covered = int64(blk.End)
				m := blk.Len()
				ln.res.Offered += int64(m)
				ln.inFlight += int64(m)
				ln.blkT, ln.blkIn, ln.blkDest, ln.blkSvc, ln.blkMeas = blk.T, blk.In, blk.Dest, blk.Svc, blk.Meas
				ln.cur, ln.blkLen = 0, m
			}
			if ln.done {
				continue
			}
			if ln.inFlight == 0 {
				if ln.exhausted {
					finish(ln, t)
					if ln.res.Messages == 0 {
						ln.res = nil
						ln.err = fmt.Errorf("simnet: no measured messages (p too small or horizon too short)")
					}
					continue
				}
				if ln.covered < minCovered || minCovered < 0 {
					minCovered = ln.covered
				}
				continue
			}
			allIdle = false
		}
		if live == 0 {
			break
		}
		if allIdle {
			// Every live lane is between arrivals: skip the gap up to
			// the earliest next covered cycle in one step, as the scalar
			// engine does per run. A live lane's rings are empty here (it
			// is idle), and a retired lane's rings are never taken again,
			// so jumping every floor is safe.
			if minCovered > t+1 {
				for i := range rings {
					rings[i].floor = minCovered
				}
				t = minCovered - 1
			}
			continue
		}

		for stage := 0; stage < n; stage++ {
			any := false
			if stage == 0 {
				// Per lane: this cycle's arrivals from the lane's block
				// cursor, slots allocated in trace order from the lane's
				// own free list so admission ordinals and alloc counters
				// match the scalar engine.
				for l := range lanes {
					ln := &lanes[l]
					bk := la.laneBatch[l][:0]
					lmsl := la.msl[l]
					for !ln.done && ln.cur < ln.blkLen && int64(ln.blkT[ln.cur]) == t {
						var si int32
						if fn := len(ln.freeSlots); fn > 0 {
							si = ln.freeSlots[fn-1]
							ln.freeSlots = ln.freeSlots[:fn-1]
							if ln.pc != nil {
								ln.pc.freeHits++
							}
						} else {
							if ln.cfg.Fault != nil {
								ln.cfg.Fault.OnSlotAlloc() // may panic with a typed injected error
							}
							if ln.used == len(lmsl) {
								la.growSlots(l, n, trackWaits)
								lmsl = la.msl[l]
							}
							si = int32(ln.used)
							ln.used++
							if ln.pc != nil {
								ln.pc.slotAllocs++
							}
						}
						cur := ln.cur
						ms := ln.blkMeas[cur]
						lmsl[si] = mrec{
							dest: ln.blkDest[cur],
							row:  ln.blkIn[cur],
							svc:  ln.blkSvc[cur],
							meas: ms,
						}
						if ln.pc != nil {
							ln.pc.enter(0)
							ln.pc.admit(si, ms, t, ln.blkDest[cur])
						}
						bk = append(bk, si)
						ln.cur++
					}
					la.laneBatch[l] = bk
					if len(bk) > 0 {
						any = true
					}
				}
			} else {
				// Per-lane takes from per-lane rings: each lane's batch is
				// the same slot indices, in the same push order, that a
				// scalar run of the replication would take this cycle.
				for l := range lanes {
					ln := &lanes[l]
					if ln.done {
						la.laneBatch[l] = la.laneBatch[l][:0]
						continue
					}
					r := &rings[l*(n-1)+stage-1]
					if r.count == 0 {
						r.floor = t + 1
						la.laneBatch[l] = la.laneBatch[l][:0]
						continue
					}
					bk := r.take(t, la.laneBatch[l][:0])
					la.laneBatch[l] = bk
					if len(bk) > 0 {
						any = true
					}
				}
			}
			if !any {
				continue
			}
			// Per-lane pre-pass: backlog accounting and the lane's own
			// Fisher–Yates shuffle, consuming the lane's RNG exactly as
			// the scalar engine would.
			for l := range lanes {
				bk := la.laneBatch[l]
				if len(bk) == 0 {
					continue
				}
				ln := &lanes[l]
				if ln.pc != nil {
					ln.pc.leave(stage, int64(len(bk)))
				}
				if stage == 0 {
					ln.active += int64(len(bk))
					if ln.pc != nil {
						ln.pc.active(ln.active)
					}
				}
				rng := ln.rng
				for i := len(bk) - 1; i > 0; i-- {
					j := int(rng.Uint64N(uint64(i + 1)))
					bk[i], bk[j] = bk[j], bk[i]
				}
			}
			last := stage+1 == n
			var shift uint
			var div uint32
			if pow2 {
				shift = shifts[stage]
			} else {
				div = meta.digitDiv[stage]
			}
			if fastBody {
				// Specialized loop, lanes in sequence: per message this is
				// exactly the scalar fast body — every per-lane pointer
				// (free row, accumulator, ring) is hoisted before the
				// batch, so the per-message cost matches the scalar
				// kernel's and the lock-step savings (shared cycle loop,
				// shared scratch, one alias table, one pool round-trip)
				// come for free.
				for l := range lanes {
					bk := la.laneBatch[l]
					if len(bk) == 0 {
						continue
					}
					ln := &lanes[l]
					lmsl := la.msl[l]
					base := (l*n + stage) * rowsN
					stageFree := la.free[base : base+rowsN]
					sw := &ln.res.StageWait[stage]
					var rg *kring
					if !last {
						rg = &rings[l*(n-1)+stage]
					}
					freeSlots := ln.freeSlots
					for _, si := range bk {
						m := &lmsl[si]
						var port int32
						if pow2 {
							port = (m.row<<logk | int32((m.dest>>shift)&kmask)) & rowMask
						} else {
							digit := int(m.dest/div) % k
							port = int32((int(m.row)*k + digit) % rowsN)
						}
						s := t
						if f := stageFree[port]; f > s {
							s = f
						}
						stageFree[port] = s + int64(m.svc)
						w := int32(s - t)
						m.wsum += w
						if m.meas {
							sw.Add(float64(w))
						}
						if !last {
							m.row = port
							rg.push(s+1, si)
						} else {
							if m.meas {
								ln.res.Messages++
								ln.res.TotalWait.Add(int(m.wsum))
							}
							freeSlots = append(freeSlots, si)
							ln.inFlight--
							ln.active--
						}
					}
					ln.freeSlots = freeSlots
				}
				continue
			}
			// General loop: lanes processed sequentially, each with the
			// scalar engine's full instrumented body.
			for l := range lanes {
				bk := la.laneBatch[l]
				if len(bk) == 0 {
					continue
				}
				ln := &lanes[l]
				rng := ln.rng
				lmsl := la.msl[l]
				var lwaits []int16
				if trackWaits {
					lwaits = la.waits[l]
				}
				base := (l*n + stage) * rowsN
				stageFree := la.free[base : base+rowsN]
				sw := &ln.res.StageWait[stage]
				var rg *kring
				if !last {
					rg = &rings[l*(n-1)+stage]
				}
				var hw *stats.Welford
				if ln.res.HotWait != nil {
					hw = &ln.res.HotWait[stage]
				}
				var whS *stats.Hist
				if ln.wh != nil {
					whS = ln.wh[stage]
				}
				pc := ln.pc
				for _, si := range bk {
					m := &lmsl[si]
					dest := m.dest
					var port int32
					if pow2 {
						port = (m.row<<logk | int32((dest>>shift)&kmask)) & rowMask
					} else {
						digit := int(dest/div) % k
						port = int32((int(m.row)*k + digit) % rowsN)
					}
					s := t
					if f := stageFree[port]; f > s {
						s = f
					}
					svc := int64(m.svc)
					if resample != nil {
						svc = int64(resample.Sample(rng.Float64(), rng.Float64()))
					}
					stageFree[port] = s + svc
					w := int32(s - t)
					m.wsum += w
					ms := m.meas
					if ms {
						sw.Add(float64(w))
						if hw != nil && dest == 0 {
							hw.Add(float64(w))
						}
						if whS != nil {
							whS.Add(int(w))
						}
					}
					if pc != nil {
						pc.stageObs(si, stage, ms, t, s, s+svc)
					}
					if trackWaits {
						lwaits[int(si)*n+stage] = int16(w)
					}
					if !last {
						m.row = port
						rg.push(s+1, si)
						if pc != nil {
							pc.enter(stage + 1)
						}
					} else {
						if ms {
							ln.res.Messages++
							ln.res.TotalWait.Add(int(m.wsum))
							if ln.res.StageCov != nil {
								wbase := int(si) * n
								for j := 0; j < n; j++ {
									vec[j] = float64(lwaits[wbase+j])
								}
								ln.res.StageCov.Add(vec)
							}
						}
						if pc != nil {
							pc.finishObs(si, ms, int64(m.wsum))
						}
						ln.freeSlots = append(ln.freeSlots, si)
						ln.inFlight--
						ln.active--
					}
				}
			}
		}
	}
	for l := range lanes {
		results[l] = lanes[l].res
		errs[l] = lanes[l].err
	}
	return results, errs
}
