package simnet

import (
	"context"
	"fmt"

	"banyan/internal/stats"
)

// RunKernelSource executes the batch kernel against an arrival source.
//
// The kernel is the production message-level engine (Run, RunCtx,
// RunTrace and the graph engine's committed mode all route here): a
// batched, structure-of-arrays rewrite of the message-level algorithm
// in RunSource. It produces byte-identical Results to the reference
// engine at every seed — same RNG stream, same batch orders, same
// truncation decisions — while allocating nothing on the hot path:
//
//   - in-flight message state lives in a cached arena of flat slot
//     records (indices instead of pointerful structs), sized by the
//     in-flight population rather than the schedule block, so the
//     working set stays cache-resident and is reused across
//     replications;
//   - per-stage schedules are flat power-of-two rings whose per-cycle
//     buckets retain their capacity across cycles and runs, so
//     scheduling a message is one in-capacity append and draining a
//     cycle is one memcpy — no slice churn, no free-list of buckets;
//   - slots are allocated lazily at the cycle a message enters stage 1,
//     not when its schedule block is pulled, so pulling a block is O(1)
//     bookkeeping plus the generator's own work;
//   - stages with nothing scheduled are skipped by a counter check, so
//     a cycle costs O(active stages + messages served), and runs of
//     cycles with an empty network are skipped in one step;
//   - routing is data: every stage looks the next row up in a
//     next[row·k+digit] table (one shared omega table for the stage
//     model, the wiring's tables for the graph engine), reading the
//     digit by shift and mask when the radix is a power of two and by
//     division otherwise; the batch shuffle is krand's closure-free
//     Fisher–Yates, consuming draws exactly like math/rand/v2's Shuffle.
//
// The source must deliver blocks whose messages are ordered by arrival
// cycle (the ArrivalSource contract); the kernel consumes each block
// with a cursor instead of re-bucketing its messages. The other engine
// bodies are RunSource, the laned kernel, the literal engine and the
// graph engine's blocking mode.
func RunKernelSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunKernelSourceCtx(context.Background(), cfg, src)
}

// RunKernelSourceCtx is RunKernelSource with cancellation and
// saturation guards, behaving exactly like RunSourceCtx.
func RunKernelSourceCtx(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.requireStageModel("fast"); err != nil {
		return nil, err
	}
	ar := getArena()
	defer ar.release()
	return runKernel(ctx, cfg, src, ar, nil)
}

// runKernel is the batch-kernel engine body. It mirrors RunSourceCtx
// decision for decision: every RNG draw (one Fisher–Yates shuffle per
// non-empty (cycle, stage) batch, two uniforms per message when service
// is resampled), every statistics update and every guard fires in the
// identical order, so the two engines are byte-identical at every seed.
//
// A nil g runs the stage model over the shared omega table. A non-nil g
// runs the graph engine's committed mode over g's wiring, adding the
// graph-only work to the general loop: the fail-link policy (Dropped,
// Deflected, Misrouted), the per-switch backlog counters and the
// per-switch wait histograms. Under the omega wiring with none of those
// switched on, the two are the same computation.
func runKernel(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena, g *graphNet) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	meta := src.Meta()
	n := meta.Stages
	rowsN := meta.Rows
	res := &Result{
		Rows:      rowsN,
		Wrapped:   meta.Wrapped,
		StageWait: make([]stats.Welford, n),
	}
	trackWaits := cfg.TrackStageWaits
	if trackWaits {
		res.StageCov = stats.NewCovMatrix(n)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, n)
	}

	rng := newKrand(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1)
	resample := cfg.serviceSampler()
	ar.prepare(n, rowsN, trackWaits)

	engine := "fast"
	var rt *router
	var swh [][]*stats.Hist
	if g == nil {
		rt = ar.stageRoute(meta)
	} else {
		engine = "graph"
		rt = ar.wiredRoute(g.wir)
		swh = g.swh
	}
	track := g != nil && g.load != nil // per-switch backlog counters
	fail := g != nil && g.failed != nil

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, engine)
		if g != nil {
			pc.switchHW, pc.switchBlocked = g.hw, g.blocked
		}
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	k := rt.k
	pow2, logk, kmask := rt.pow2, rt.logk, rt.kmask

	// fastBody selects the specialized service loop: nothing optional is
	// switched on, so the per-message body reduces to routing, port
	// contention and the two mandatory statistics.
	fastBody := pc == nil && resample == nil && !trackWaits &&
		res.HotWait == nil && wh == nil && !track && !fail && swh == nil

	msl := ar.msl
	waits := ar.waits
	free := ar.free
	rings := ar.rings
	vec := ar.vec

	inFlight := int64(0)
	active := int64(0) // arrived at stage 1 but not yet exited (network backlog)
	exhausted := false
	covered := int64(0) // arrivals at cycles < covered are all pulled
	maxInFlight := cfg.maxInFlight()
	drainLimit := cfg.drainLimit(meta.Horizon)

	// Current schedule block, consumed by cursor. The pull loop only
	// fires once every message of the previous block has been consumed:
	// covered > t holds after each cycle, so a new pull at cycle t
	// starts a block at exactly cycle t.
	var blkT, blkIn []int32
	var blkDest []uint32
	var blkSvc []int16
	var blkMeas []bool
	cur, blkLen := 0, 0

	for ; ; t++ {
		if err := pollCycle(ctx, cfg, pc, t); err != nil {
			res.truncate(t, false)
			return res, err
		}
		if active > maxInFlight {
			// Backlog growing without bound: the divergence signature of
			// a configuration at or beyond m·λ = 1.
			res.truncate(t, true)
			return res, nil
		}
		if t > drainLimit {
			// Still holding messages past the drain budget: saturated.
			res.truncate(t, true)
			return res, nil
		}
		if track {
			// Release the switch residencies expiring this cycle, before
			// any join: a message routed at cycle t' with committed start
			// s holds its switch over [t', s] and leaves it at s+1. Below
			// the last stage that is the cycle its ring entry comes due:
			// the bucket for t (no earlier cycle is pending) still holds
			// it, with its row the port it holds. The last stage
			// schedules its releases by switch id.
			for j := 0; j < n-1; j++ {
				if r := &rings[j]; r.count > 0 {
					for _, si := range r.buf[t&r.mask] {
						g.swLeave(j, msl[si].row)
					}
				}
			}
			ids := ar.rel.take(t, ar.batch[:0])
			for _, id := range ids {
				g.load[n-1][id]--
			}
			ar.batch = ids
		}
		// Pull schedule blocks until cycle t is fully covered.
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
			m := blk.Len()
			res.Offered += int64(m)
			inFlight += int64(m)
			blkT, blkIn, blkDest, blkSvc, blkMeas = blk.T, blk.In, blk.Dest, blk.Svc, blk.Meas
			cur, blkLen = 0, m
		}
		if inFlight == 0 {
			if exhausted {
				break
			}
			// Nothing in flight and no arrival before covered: skip the
			// idle cycles in one step. The rings are all empty, so their
			// floors can jump with the clock; no guard below could have
			// fired during the gap (arrival cycles never exceed the
			// drain limit, and the backlog is zero). Pending last-stage
			// switch releases hold the clock back until they fire.
			if covered > t+1 && ar.rel.count == 0 {
				for i := range rings {
					rings[i].floor = covered
				}
				ar.rel.floor = covered
				t = covered - 1
			}
			continue
		}

		for stage := 0; stage < n; stage++ {
			var bk []int32
			if stage == 0 {
				// This cycle's arrivals are the block's next run of
				// cursor entries; allocate their slots in trace order
				// (so probe admission ordinals match the reference
				// engine) and batch them for the shuffle.
				bk = ar.batch[:0]
				for cur < blkLen && int64(blkT[cur]) == t {
					si := ar.slot(cfg.Fault, pc, n, trackWaits)
					msl, waits = ar.msl, ar.waits
					ms := blkMeas[cur]
					msl[si] = mrec{
						dest: blkDest[cur],
						row:  blkIn[cur],
						svc:  blkSvc[cur],
						meas: ms,
					}
					if pc != nil {
						pc.enter(0)
						pc.admit(si, ms, t, blkDest[cur])
					}
					bk = append(bk, si)
					cur++
				}
				ar.batch = bk
			} else {
				r := &rings[stage-1]
				if r.count == 0 {
					r.floor = t + 1
					continue
				}
				bk = r.take(t, ar.batch[:0])
				ar.batch = bk
			}
			if len(bk) == 0 {
				continue
			}
			if pc != nil {
				pc.leave(stage, int64(len(bk)))
			}
			if stage == 0 {
				active += int64(len(bk))
				if pc != nil {
					pc.active(active)
				}
			}
			// Random service order among simultaneous arrivals.
			rng.shuffle(bk)
			stageFree := free[stage*rowsN : (stage+1)*rowsN]
			tbl := rt.next[stage]
			sw := &res.StageWait[stage]
			var hw *stats.Welford
			if res.HotWait != nil {
				hw = &res.HotWait[stage]
			}
			var whS *stats.Hist
			if wh != nil {
				whS = wh[stage]
			}
			last := stage+1 == n
			var rg *kring
			if !last {
				rg = &rings[stage]
			}
			var shift uint
			var div uint32
			if pow2 {
				shift = rt.shift[stage]
			} else {
				div = rt.div[stage]
			}
			if fastBody {
				// Specialized service loop for the plain configuration
				// (no probe, no resampling, no hot spot, no wait hists,
				// no per-stage wait tracking, no graph extras). Every
				// statistics update below appears in the general loop in
				// the same order on the same values, so the two bodies
				// are byte-identical; what the specialization buys is a
				// branch-free body the compiler can register-allocate
				// tightly, on the loop that runs once per message per
				// stage.
				for _, si := range bk {
					m := &msl[si]
					var port int32
					if pow2 {
						port = tbl[int(m.row)<<logk|int((m.dest>>shift)&kmask)]
					} else {
						port = tbl[int(m.row)*k+int(m.dest/div)%k]
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
							res.Messages++
							res.TotalWait.Add(int(m.wsum))
						}
						ar.freeSlots = append(ar.freeSlots, si)
						inFlight--
						active--
					}
				}
				continue
			}
			for _, si := range bk {
				m := &msl[si]
				dest := m.dest
				var digit int
				if pow2 {
					digit = int((dest >> shift) & kmask)
				} else {
					digit = int(dest/div) % k
				}
				port := tbl[int(m.row)*k+digit]
				if fail && g.failed[stage][port] {
					var ok bool
					if port, ok = g.reroute(tbl, g.failed[stage], m.row, digit); !ok {
						res.Dropped++
						if pc != nil {
							pc.dropSpan(si)
						}
						ar.freeSlots = append(ar.freeSlots, si)
						inFlight--
						active--
						continue
					}
					res.Deflected++
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
					if swh != nil {
						swh[stage][g.swid[stage][port]].Add(int(w))
					}
				}
				if pc != nil {
					pc.stageObs(si, stage, ms, t, s, s+svc)
				}
				if trackWaits {
					waits[int(si)*n+stage] = int16(w)
				}
				if track {
					g.swJoin(stage, port)
					if last {
						ar.rel.push(s+1, g.swid[stage][port])
					}
				}
				if !last {
					m.row = port
					rg.push(s+1, si)
					if pc != nil {
						pc.enter(stage + 1)
					}
				} else {
					if fail && port != int32(dest) {
						res.Misrouted++
					}
					if ms {
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
						pc.finishObs(si, ms, int64(m.wsum))
					}
					ar.freeSlots = append(ar.freeSlots, si)
					inFlight--
					active--
				}
			}
		}
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages (p too small or horizon too short)")
	}
	return res, nil
}
