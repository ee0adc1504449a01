package simnet

import (
	"runtime"
	"testing"

	"banyan/internal/topology"
)

// TestCycleBucketsSpareRetention is the regression test for the spare
// free-list leak: recycling a peak-sized bucket from a saturated cycle
// must release it to the GC, not pin it in the spare list for the rest
// of the run, and the spare list itself stays bounded no matter how many
// buckets a run recycles.
func TestCycleBucketsSpareRetention(t *testing.T) {
	cb := newCycleBuckets()

	// An oversized bucket (capacity past maxSpareBucketCap) is dropped.
	big := make([]int32, 0, maxSpareBucketCap+1)
	cb.recycle(big)
	if len(cb.spare) != 0 {
		t.Fatalf("oversized bucket retained: spare len %d", len(cb.spare))
	}

	// Zero-capacity slices are ignored too (nothing to reuse).
	cb.recycle(nil)
	if len(cb.spare) != 0 {
		t.Fatal("nil bucket retained")
	}

	// The spare list is capped at maxSpareBuckets entries.
	for i := 0; i < 3*maxSpareBuckets; i++ {
		cb.recycle(make([]int32, 0, 16))
	}
	if len(cb.spare) != maxSpareBuckets {
		t.Fatalf("spare list holds %d buckets, cap is %d", len(cb.spare), maxSpareBuckets)
	}

	// push draws from the spare list instead of allocating.
	before := len(cb.spare)
	cb.push(5, 42)
	if len(cb.spare) != before-1 {
		t.Fatalf("push did not consume a spare bucket (%d -> %d)", before, len(cb.spare))
	}
	if got := cb.take(5); len(got) != 1 || got[0] != 42 {
		t.Fatalf("take(5) = %v, want [42]", got)
	}
}

// TestCycleBucketsGrowPreservesSchedule: growing the ring mid-run keeps
// every scheduled slot in its cycle, in push order.
func TestCycleBucketsGrowPreservesSchedule(t *testing.T) {
	cb := newCycleBuckets()
	// Fill several cycles inside the initial 64-cycle window…
	for c := int64(0); c < 10; c++ {
		for v := int32(0); v < 3; v++ {
			cb.push(c, 10*int32(c)+v)
		}
	}
	// …then push far enough ahead to force two doublings.
	cb.push(200, 999)
	for c := int64(0); c < 10; c++ {
		got := cb.take(c)
		if len(got) != 3 {
			t.Fatalf("cycle %d: %v, want 3 entries", c, got)
		}
		for v := int32(0); v < 3; v++ {
			if got[v] != 10*int32(c)+v {
				t.Fatalf("cycle %d: %v out of push order", c, got)
			}
		}
		cb.recycle(got)
	}
	if got := cb.take(200); len(got) != 1 || got[0] != 999 {
		t.Fatalf("take(200) = %v, want [999]", got)
	}
}

// TestKringGrowTake: the kernel's flat ring preserves cycle assignment
// and push order across growth, counts its population exactly, and
// retains bucket capacity in place after a take so the steady state does
// not re-allocate.
func TestKringGrowTake(t *testing.T) {
	var r kring
	r.reset()
	for c := int64(0); c < 8; c++ {
		for v := int32(0); v < 4; v++ {
			r.push(c, 100*int32(c)+v)
		}
	}
	r.push(500, 7) // forces re-homing of [floor, floor+64)
	if r.count != 33 {
		t.Fatalf("count = %d, want 33", r.count)
	}
	batch := make([]int32, 0, 8)
	for c := int64(0); c < 8; c++ {
		batch = r.take(c, batch[:0])
		if len(batch) != 4 {
			t.Fatalf("cycle %d: %v, want 4 entries", c, batch)
		}
		for v := int32(0); v < 4; v++ {
			if batch[v] != 100*int32(c)+v {
				t.Fatalf("cycle %d: %v out of push order", c, batch)
			}
		}
	}
	if batch = r.take(500, batch[:0]); len(batch) != 1 || batch[0] != 7 {
		t.Fatalf("take(500) = %v, want [7]", batch)
	}
	if r.count != 0 {
		t.Fatalf("count = %d after draining, want 0", r.count)
	}

	// A taken cell keeps its capacity: the next push to the aliased
	// cycle appends into the same backing array.
	idx := 500 & r.mask
	capBefore := cap(r.buf[idx])
	if capBefore == 0 {
		t.Fatal("taken cell lost its backing array")
	}
	r.push(500+int64(len(r.buf)), 1)
	if cap(r.buf[idx]) < capBefore {
		t.Fatal("take dropped retained bucket capacity")
	}
}

// TestArenaReleaseRetentionCaps: an arena that grew pathologically large
// during a saturated run drops the oversized scratch when it returns to
// the pool, while ordinarily sized scratch is kept.
func TestArenaReleaseRetentionCaps(t *testing.T) {
	a := new(arena)
	a.msl = make([]mrec, maxRetainSlots+1)
	a.waits = make([]int16, maxRetainWaits+1)
	a.batch = make([]int32, 0, maxRetainBatch+1)
	a.free = make([]int64, maxRetainPorts+1)
	a.blkT = make([]int32, 0, maxRetainBlk+1)
	a.rings = []kring{{buf: make([][]int32, 2*maxRetainRingCycles), mask: 2*maxRetainRingCycles - 1}}
	a.release()
	if a.msl != nil || a.waits != nil || a.batch != nil || a.free != nil || a.blkT != nil {
		t.Fatal("release retained scratch past the caps")
	}
	if a.rings[0].buf != nil {
		t.Fatal("release retained an oversized ring")
	}

	b := new(arena)
	b.msl = make([]mrec, 256)
	b.batch = make([]int32, 0, 1024)
	b.release()
	if len(b.msl) != 256 || cap(b.batch) != 1024 {
		t.Fatal("release dropped ordinarily sized scratch")
	}
}

// TestArenaCacheSurvivesGC: once warm, back-to-back RunCtx and RunGraph
// calls (committed and blocking) find the cached arena again after every
// garbage collection, at GOMAXPROCS 1 and 2. The cache is neither per-P
// nor emptied by the collector, so a steady-state replication never
// constructs — and regrows — a fresh arena.
func TestArenaCacheSurvivesGC(t *testing.T) {
	kernel := Config{K: 2, Stages: 4, P: 0.5, Cycles: 400, Warmup: 50, Seed: 3}
	committed := kernel
	committed.Topology = topology.Omega
	committed.TrackSwitches = true
	blocking := committed
	blocking.StageBuffers = []int{4, 4, 4, 4}
	runAll := func() {
		t.Helper()
		for _, c := range []struct {
			run func(*Config) (*Result, error)
			cfg *Config
		}{{Run, &kernel}, {RunGraph, &committed}, {RunGraph, &blocking}} {
			runtime.GC()
			if _, err := c.run(c.cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		runAll()
		made := arenasMade.Load()
		for i := 0; i < 4; i++ {
			runAll()
		}
		runtime.GOMAXPROCS(prev)
		if got := arenasMade.Load() - made; got != 0 {
			t.Errorf("GOMAXPROCS=%d: warm runs constructed %d new arenas", procs, got)
		}
	}
}
