package simnet

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"banyan/internal/faultinject"
	"banyan/internal/topology"
)

// arenaLive counts arenas currently checked out of the caches — scalar
// and laned. Every engine entry point increments it at checkout and
// release decrements it on every exit path (release runs deferred, so
// panics and cancellations are covered too). The chaos battery asserts
// it returns to zero after every scenario: a non-zero residue means an
// exit path leaked pooled scratch.
var arenaLive atomic.Int64

// arenasMade counts arenas ever constructed, scalar and laned: a warm
// cache keeps it still across back-to-back runs.
var arenasMade atomic.Int64

// ArenaLive reports how many pooled kernel arenas are checked out right
// now. Zero when no engine invocation is in flight.
func ArenaLive() int64 { return arenaLive.Load() }

// freeList is the arena cache: a mutex-guarded LIFO free list holding
// at most GOMAXPROCS released arenas, one per engine that can run at
// once. Unlike a sync.Pool it is neither per-P nor emptied by the
// garbage collector, so whether a run finds a warm arena depends only
// on how many runs are in flight — and the steady-state allocation of
// back-to-back replications is a function of the config alone.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get pops the most recently released entry, or makes a new one.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		arenasMade.Add(1)
		return new(T)
	}
	a := f.items[n-1]
	f.items = f.items[:n-1]
	return a
}

// put caches a released entry unless the list is full.
func (f *freeList[T]) put(a *T) {
	f.mu.Lock()
	if len(f.items) < runtime.GOMAXPROCS(0) {
		f.items = append(f.items, a)
	}
	f.mu.Unlock()
}

var (
	arenas     freeList[arena]
	laneArenas freeList[lanesArena]
)

// getArena checks a scalar arena out of the cache.
func getArena() *arena {
	a := arenas.get()
	a.checkedOut = true
	arenaLive.Add(1)
	return a
}

// getLanesArena checks a laned arena out of the cache.
func getLanesArena() *lanesArena {
	a := laneArenas.get()
	a.checkedOut = true
	arenaLive.Add(1)
	return a
}

// arena holds the batch kernel's reusable scratch state: the
// structure-of-arrays in-flight message store, the per-stage schedule
// rings, the per-port free-time table and (on the streaming path) the
// trace-block buffers. One arena serves one run at a time; runs obtain
// it from the arena cache, so replications executed back to back — the
// sweep worker loop — reuse the same backing arrays instead of
// regrowing them every run. The graph engine runs on the same arenas:
// committed mode is the kernel itself, and blocking mode keeps its
// queues and per-slot state here too. The kernel's steady-state hot
// loop performs no allocation: every per-message and per-cycle
// structure below is indexed scratch.
//
// Slot layout. A message in flight occupies one slot index into msl
// (plus a stride-Stages lane of waits when per-stage waits are
// tracked). Slots are recycled through freeSlots as messages leave the
// network; used is the high-water mark of slots ever handed out this
// run. Because slots are allocated lazily — at the cycle a message
// enters stage 1, not when its schedule block is pulled — the store's
// footprint tracks the in-flight population (typically a few hundred
// messages), not the block size, and stays cache-resident.
type arena struct {
	// In-flight message state, indexed by slot. The hot per-message
	// fields are packed into one 16-byte record: every field is touched
	// together at every stage, so one record costs one bounds check and
	// one cache line where parallel columns would cost five of each.
	msl   []mrec
	waits []int16 // stride-Stages per-stage waits (TrackStageWaits only)

	used      int // slots handed out this run (free list aside)
	freeSlots []int32

	rings []kring // rings[s] holds messages scheduled to enter stage s+2
	batch []int32 // one (cycle, stage) batch, reused across stages

	free []int64   // per-stage, per-port next-free cycle
	vec  []float64 // covariance scratch

	rt     router  // the run's routing data
	omega  []int32 // the stage model's shared (row·k+digit) mod rows table
	omegaK int     // the radix omega was built for

	// rel schedules the release of last-stage switch residencies by
	// switch id (graph runs with per-switch counters only).
	rel kring

	// Blocking-mode scratch (graph engine with finite buffers): per-slot
	// logical arrival state, the output-port FIFOs, the parked sender
	// ports, held stage-1 arrivals and the two delivery lists.
	lit    []litRec
	queues []literalQueue // stage·rows + row
	parked []int32        // stage·rows + row, for stages below the last; -1 when clear
	held   []int32
	deliv  [2][]int32

	// Trace-block scratch lent to a kernel-owned TraceStream for the
	// run's duration and harvested back grown, so back-to-back runs do
	// not regrow the generator's block arrays either.
	blkT    []int32
	blkIn   []int32
	blkDest []uint32
	blkSvc  []int16
	blkMeas []bool

	checkedOut bool // set by getArena, cleared by release (ArenaLive accounting)
}

// mrec is one in-flight message: the port it last departed (its input
// row at stage 1), its destination, accumulated waiting time, service
// requirement and measurement flag, packed to 16 bytes.
type mrec struct {
	dest uint32
	row  int32
	wsum int32
	svc  int16
	meas bool
}

// litRec is a blocking-mode message's position: the logical arrival
// cycle at the queue it occupies (or is due to join) and that queue's
// 1-based stage.
type litRec struct {
	at    int32
	stage int8
}

// router is a run's routing data: at 0-based stage s a message on row r
// whose stage digit is d joins output row next[s][r·k+d]. The digit is
// read off the destination by shift and mask when the radix is a power
// of two, by division otherwise. The stage model routes every stage
// through one shared omega table; the graph engine passes its wiring's
// tables and digit order.
type router struct {
	next  [][]int32
	div   []uint32
	shift []uint
	k     int
	pow2  bool
	logk  uint
	kmask uint32
}

// digit returns the routing digit dest consumes at 0-based stage s.
func (r *router) digit(s int, dest uint32) int {
	if r.pow2 {
		return int(dest >> r.shift[s] & r.kmask)
	}
	return int(dest/r.div[s]) % r.k
}

// stageRoute routes a stage-model run over meta: every stage shares one
// (row·k+digit) mod rows table, built once per (k, rows) and kept.
func (a *arena) stageRoute(meta *TraceMeta) *router {
	k, rows := meta.K, meta.Rows
	if a.omegaK != k || len(a.omega) != rows*k {
		a.omega = make([]int32, rows*k)
		for i := range a.omega {
			a.omega[i] = int32(i % rows)
		}
		a.omegaK = k
	}
	a.rt.next = a.rt.next[:0]
	for range meta.Stages {
		a.rt.next = append(a.rt.next, a.omega)
	}
	a.rt.div = append(a.rt.div[:0], meta.digitDiv...)
	return a.setRoute(k)
}

// wiredRoute routes a graph run through w's tables and digit order.
func (a *arena) wiredRoute(w *topology.Wiring) *router {
	a.rt.next, a.rt.div = a.rt.next[:0], a.rt.div[:0]
	for s := 1; s <= w.Stages(); s++ {
		a.rt.next = append(a.rt.next, w.NextTable(s))
		a.rt.div = append(a.rt.div, w.DigitDiv(s))
	}
	return a.setRoute(w.Radix())
}

// setRoute derives the digit extraction for radix k from the divisors.
func (a *arena) setRoute(k int) *router {
	r := &a.rt
	r.k = k
	r.pow2 = k&(k-1) == 0
	r.shift = r.shift[:0]
	if r.pow2 {
		r.logk = uint(bits.TrailingZeros32(uint32(k)))
		r.kmask = uint32(k - 1)
		for _, d := range r.div {
			r.shift = append(r.shift, uint(bits.TrailingZeros32(d)))
		}
	}
	return r
}

// Retention caps applied when an arena returns to the cache: scratch
// grown by a pathological point (saturated high-ρ runs can hold tens of
// thousands of messages in flight) is dropped rather than pinned for
// the rest of the process. Ordinary points sit far below every cap, so
// the steady state stays allocation-free.
const (
	maxRetainSlots      = 1 << 17 // in-flight slots kept across runs
	maxRetainWaits      = 1 << 20 // per-stage wait lanes kept across runs
	maxRetainRingCycles = 1 << 15 // schedule-ring cycle span kept across runs
	maxRetainRingSpan   = 1 << 17 // total bucket capacity kept per ring
	maxRetainBatch      = 1 << 17 // batch scratch kept across runs
	maxRetainPorts      = 1 << 17 // port free-time entries kept across runs
	maxRetainBlk        = 1 << 20 // trace-block entries kept across runs
)

// prepare resets the arena for a run over n stages and rows ports per
// stage, reusing every backing array that is already large enough.
func (a *arena) prepare(n, rows int, trackWaits bool) {
	a.used = 0
	a.freeSlots = a.freeSlots[:0]
	a.batch = a.batch[:0]
	need := n * rows
	if cap(a.free) < need {
		a.free = make([]int64, need)
	} else {
		a.free = a.free[:need]
		clear(a.free)
	}
	if cap(a.vec) < n {
		a.vec = make([]float64, n)
	} else {
		a.vec = a.vec[:n]
	}
	for len(a.rings) < n-1 {
		a.rings = append(a.rings, kring{})
	}
	for i := 0; i < n-1; i++ {
		a.rings[i].reset()
	}
	a.rel.reset()
	if trackWaits && len(a.waits) < len(a.msl)*n {
		a.waits = make([]int16, len(a.msl)*n)
	}
}

// prepareBlocking additionally resets the blocking-mode scratch for a
// run over n stages and rows ports per stage.
func (a *arena) prepareBlocking(n, rows int) {
	need := n * rows
	if cap(a.queues) < need {
		a.queues = make([]literalQueue, need)
	}
	a.queues = a.queues[:need]
	for i := range a.queues {
		q := &a.queues[i]
		q.head, q.n, q.freeAt = 0, 0, 0
	}
	if cap(a.parked) < need-rows {
		a.parked = make([]int32, need-rows)
	}
	a.parked = a.parked[:need-rows]
	for i := range a.parked {
		a.parked[i] = -1
	}
	a.held = a.held[:0]
	a.deliv[0], a.deliv[1] = a.deliv[0][:0], a.deliv[1][:0]
	if len(a.lit) < len(a.msl) {
		a.lit = make([]litRec, len(a.msl))
	}
}

// slot hands out a message slot: a recycled one when the free list has
// one, else the next never-used slot, growing the store when it is full
// (callers reload msl and waits). A never-used slot first gives the
// fault injector its chance to fire.
func (a *arena) slot(fi *faultinject.RepFault, pc *runProbe, stride int, trackWaits bool) int32 {
	if fn := len(a.freeSlots); fn > 0 {
		si := a.freeSlots[fn-1]
		a.freeSlots = a.freeSlots[:fn-1]
		if pc != nil {
			pc.freeHits++
		}
		return si
	}
	if fi != nil {
		fi.OnSlotAlloc() // may panic with a typed injected error
	}
	if a.used == len(a.msl) {
		a.growSlots(stride, trackWaits)
	}
	si := int32(a.used)
	a.used++
	if pc != nil {
		pc.slotAllocs++
	}
	return si
}

// growSlots doubles the slot store, preserving live slots. stride is
// the run's stage count (the waits lane width).
func (a *arena) growSlots(stride int, trackWaits bool) {
	nc := 2 * len(a.msl)
	if nc == 0 {
		nc = 256
	}
	a.msl = growCopy(a.msl, nc)
	if trackWaits {
		a.waits = growCopy(a.waits, nc*stride)
	}
}

func growCopy[T any](s []T, n int) []T {
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// lendBlockScratch hands the arena's trace-block arrays to a freshly
// created stream so its first block reuses their capacity. Only the
// kernel's own private streams are lent scratch: an externally supplied
// stream may outlive the run and must keep owning its arrays.
func (a *arena) lendBlockScratch(s *TraceStream) {
	if s.next != 0 || s.blk.T != nil {
		return
	}
	s.blk.T = a.blkT[:0]
	s.blk.In = a.blkIn[:0]
	s.blk.Dest = a.blkDest[:0]
	s.blk.Svc = a.blkSvc[:0]
	s.blk.Meas = a.blkMeas[:0]
}

// harvestBlockScratch takes the (possibly regrown) block arrays back
// from a stream the arena previously lent scratch to.
func (a *arena) harvestBlockScratch(s *TraceStream) {
	a.blkT = s.blk.T[:0]
	a.blkIn = s.blk.In[:0]
	a.blkDest = s.blk.Dest[:0]
	a.blkSvc = s.blk.Svc[:0]
	a.blkMeas = s.blk.Meas[:0]
	s.blk.T, s.blk.In, s.blk.Dest, s.blk.Svc, s.blk.Meas = nil, nil, nil, nil, nil
}

// release returns the arena to the cache, dropping any scratch grown
// past the retention caps. Only a checked-out arena is cached, so a
// double release cannot hand one arena to two runs.
func (a *arena) release() {
	checkedOut := a.checkedOut
	if checkedOut {
		a.checkedOut = false
		arenaLive.Add(-1)
	}
	if len(a.msl) > maxRetainSlots {
		a.msl, a.lit, a.freeSlots, a.used = nil, nil, nil, 0
	}
	a.waits = capped(a.waits, maxRetainWaits)
	a.freeSlots = capped(a.freeSlots, maxRetainSlots)
	for i := range a.rings {
		a.rings[i].trim()
	}
	a.rel.trim()
	a.batch = capped(a.batch, maxRetainBatch)
	a.held = capped(a.held, maxRetainBatch)
	a.deliv[0], a.deliv[1] = capped(a.deliv[0], maxRetainBatch), capped(a.deliv[1], maxRetainBatch)
	a.free = capped(a.free, maxRetainPorts)
	a.omega = capped(a.omega, maxRetainPorts)
	a.parked = capped(a.parked, maxRetainPorts)
	queued := 0
	for i := range a.queues {
		queued += len(a.queues[i].items)
	}
	if cap(a.queues) > maxRetainPorts || queued > maxRetainSlots {
		a.queues = nil
	}
	if cap(a.blkT) > maxRetainBlk {
		a.blkT, a.blkIn, a.blkDest, a.blkSvc, a.blkMeas = nil, nil, nil, nil, nil
	}
	clear(a.rt.next) // drop the run's wiring tables
	if checkedOut {
		arenas.put(a)
	}
}

// capped returns s, or nil when its capacity exceeds the retention cap.
func capped[T any](s []T, max int) []T {
	if cap(s) > max {
		return nil
	}
	return s
}

// lanesArena is the laned kernel's counterpart of arena: cached
// scratch serving W lock-step replications (lanes) of the same
// configuration. Every array that carries per-replication state is per
// lane — the slot store, the wait lanes, the free lists, the schedule
// rings, the batch scratch and the trace-block scratch — so each
// lane's memory layout is exactly a scalar run's: dense lane-local
// slot indices packed by its own free list, dense stride-Stages wait
// lanes, its own rings in push order. Keeping slot stores dense per
// lane (rather than interleaving lanes into one shared store) is what
// keeps the per-message cache traffic at the scalar kernel's level;
// lanes share only the cache round-trip, the lane-segmented free-time
// table and the covariance scratch.
type lanesArena struct {
	msl   [][]mrec  // per-lane slot stores, indexed by lane-local slot
	waits [][]int16 // per-lane stride-Stages waits (TrackStageWaits only)

	freeSlots [][]int32 // per-lane recycled slots
	rings     []kring   // rings[l·(n-1)+s] holds lane l's messages for stage s+2
	laneBatch [][]int32 // per-lane (cycle, stage) batch scratch

	free []int64   // per-lane, per-stage, per-port next-free cycle
	vec  []float64 // covariance scratch

	blks []TraceBlock // per-lane trace-block scratch (lend/harvest)

	checkedOut bool // set by getLanesArena, cleared by release (ArenaLive accounting)
}

// prepare resets the arena for a W-lane run over n stages and rows
// ports per stage, reusing every backing array that is already large
// enough.
func (a *lanesArena) prepare(w, n, rows int, trackWaits bool) {
	for len(a.msl) < w {
		a.msl = append(a.msl, nil)
	}
	for len(a.waits) < w {
		a.waits = append(a.waits, nil)
	}
	for len(a.freeSlots) < w {
		a.freeSlots = append(a.freeSlots, nil)
	}
	for len(a.laneBatch) < w {
		a.laneBatch = append(a.laneBatch, nil)
	}
	for len(a.blks) < w {
		a.blks = append(a.blks, TraceBlock{})
	}
	for l := 0; l < w; l++ {
		a.freeSlots[l] = a.freeSlots[l][:0]
		a.laneBatch[l] = a.laneBatch[l][:0]
		if trackWaits && len(a.waits[l]) < len(a.msl[l])*n {
			a.waits[l] = make([]int16, len(a.msl[l])*n)
		}
	}
	need := w * n * rows
	if cap(a.free) < need {
		a.free = make([]int64, need)
	} else {
		a.free = a.free[:need]
		clear(a.free)
	}
	if cap(a.vec) < n {
		a.vec = make([]float64, n)
	} else {
		a.vec = a.vec[:n]
	}
	for len(a.rings) < w*(n-1) {
		a.rings = append(a.rings, kring{})
	}
	for i := 0; i < w*(n-1); i++ {
		a.rings[i].reset()
	}
}

// growSlots doubles lane l's slot store, preserving its live slots,
// exactly as arena.growSlots does for a scalar run. stride is the
// run's stage count (the waits lane width).
func (a *lanesArena) growSlots(l, stride int, trackWaits bool) {
	nc := 2 * len(a.msl[l])
	if nc == 0 {
		nc = 256
	}
	a.msl[l] = growCopy(a.msl[l], nc)
	if trackWaits {
		a.waits[l] = growCopy(a.waits[l], nc*stride)
	}
}

// lendBlockScratch hands lane l's retained trace-block arrays to that
// lane's freshly created stream, mirroring arena.lendBlockScratch.
func (a *lanesArena) lendBlockScratch(l int, s *TraceStream) {
	if s.next != 0 || s.blk.T != nil {
		return
	}
	b := &a.blks[l]
	s.blk.T = b.T[:0]
	s.blk.In = b.In[:0]
	s.blk.Dest = b.Dest[:0]
	s.blk.Svc = b.Svc[:0]
	s.blk.Meas = b.Meas[:0]
}

// harvestBlockScratch takes lane l's (possibly regrown) block arrays
// back from its stream.
func (a *lanesArena) harvestBlockScratch(l int, s *TraceStream) {
	b := &a.blks[l]
	b.T = s.blk.T[:0]
	b.In = s.blk.In[:0]
	b.Dest = s.blk.Dest[:0]
	b.Svc = s.blk.Svc[:0]
	b.Meas = s.blk.Meas[:0]
	s.blk.T, s.blk.In, s.blk.Dest, s.blk.Svc, s.blk.Meas = nil, nil, nil, nil, nil
}

// release returns the arena to the cache, dropping scratch grown past
// the same retention caps arena.release applies: the caps bound total
// retained bytes, so they apply to the shared arrays as a whole and to
// each per-lane array individually.
func (a *lanesArena) release() {
	checkedOut := a.checkedOut
	if checkedOut {
		a.checkedOut = false
		arenaLive.Add(-1)
	}
	for l := range a.msl {
		a.msl[l] = capped(a.msl[l], maxRetainSlots)
	}
	for l := range a.waits {
		a.waits[l] = capped(a.waits[l], maxRetainWaits)
	}
	for l := range a.freeSlots {
		a.freeSlots[l] = capped(a.freeSlots[l], maxRetainSlots)
	}
	for l := range a.laneBatch {
		a.laneBatch[l] = capped(a.laneBatch[l], maxRetainBatch)
	}
	for l := range a.blks {
		if cap(a.blks[l].T) > maxRetainBlk {
			a.blks[l] = TraceBlock{}
		}
	}
	for i := range a.rings {
		a.rings[i].trim()
	}
	a.free = capped(a.free, maxRetainPorts)
	if checkedOut {
		laneArenas.put(a)
	}
}

// kring is the kernel's flat schedule ring for one stage: a growable
// power-of-two ring indexed by absolute cycle, where each cell is a
// contiguous bucket of slot indices whose capacity is retained across
// cycles — and, via the arena cache, across runs — so the steady state
// pushes into pre-grown storage and never allocates. It replaces
// cycleBuckets' take-ownership/recycle free-list protocol: a take
// memcpys the cycle's bucket into the caller's batch and resets it in
// place, so the cell can immediately accept pushes for the aliased
// future cycle t+size. Buckets append in push order, so the kernel's
// shuffle consumes the same RNG draws over the same sequence as the
// reference engine.
type kring struct {
	buf   [][]int32
	mask  int64
	floor int64 // cycles below floor have been taken already
	count int64 // messages currently scheduled in this ring
}

func (r *kring) reset() {
	if r.buf == nil {
		r.buf = make([][]int32, 64)
		r.mask = 63
	}
	for i := range r.buf {
		if b := r.buf[i]; len(b) > 0 {
			r.buf[i] = b[:0]
		}
	}
	r.floor = 0
	r.count = 0
}

// push schedules slot si for cycle t.
func (r *kring) push(t int64, si int32) {
	if t-r.floor >= int64(len(r.buf)) {
		r.grow(t)
	}
	i := t & r.mask
	r.buf[i] = append(r.buf[i], si)
	r.count++
}

// grow re-homes the ring so that cycle t fits alongside r.floor.
func (r *kring) grow(t int64) {
	old := int64(len(r.buf))
	size := old
	for t-r.floor >= size {
		size *= 2
	}
	nb := make([][]int32, size)
	nm := size - 1
	// Cycles [floor, floor+old) cover every old cell exactly once, so
	// this moves each bucket — and its retained capacity — to its new
	// home.
	for c := r.floor; c < r.floor+old; c++ {
		nb[c&nm] = r.buf[c&r.mask]
	}
	r.buf, r.mask = nb, nm
}

// take copies the bucket scheduled for cycle t (which must be ≥ the
// previous take's cycle) into batch, in push order, and resets the
// bucket for reuse.
func (r *kring) take(t int64, batch []int32) []int32 {
	r.floor = t + 1
	i := t & r.mask
	b := r.buf[i]
	if len(b) == 0 {
		return batch
	}
	batch = append(batch, b...)
	r.buf[i] = b[:0]
	r.count -= int64(len(b))
	return batch
}

// trim drops a ring grown past the retention caps.
func (r *kring) trim() {
	if len(r.buf) > maxRetainRingCycles || r.spanCapacity() > maxRetainRingSpan {
		*r = kring{}
	}
}

// spanCapacity reports the total bucket capacity retained by the ring,
// the figure bounded by the arena's release trimming.
func (r *kring) spanCapacity() int {
	c := 0
	for _, b := range r.buf {
		c += cap(b)
	}
	return c
}
