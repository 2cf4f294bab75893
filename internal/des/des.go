// Package des is the sharded discrete-event simulation core: virtual
// time advances by popping a priority event queue instead of sleeping,
// so a modeled hour costs whatever its events cost and nothing more.
// It is the engine that takes the netsim substrate from the ~2k-device
// ceiling of goroutine-per-connection pumps and real timers to
// 10k–50k-device sweeps (ROADMAP "discrete-event core").
//
// # Model
//
// An event is a closure scheduled at a virtual instant and homed on a
// 64-bit entity key (a device, a connection end, a timer). Events are
// sharded by home — shard = home mod nshards — and each shard keeps its
// own priority queue. Execution proceeds in windows: the scheduler
// finds the earliest pending instant T across all shards, sets the
// virtual clock to T, and runs every event at T. Within a window,
// shards execute their events in parallel between barriers — a
// persistent worker pool (default GOMAXPROCS, see SetWorkers) shares
// the per-pass shard batches, so the sweep uses every core; events an
// event schedules at or before T land in a follow-up pass of the same
// window, so causality at one instant is a deterministic fixpoint, not
// a race. The trace hash is folded in global key order before a pass
// executes, so it can never observe worker interleaving: determinism
// depends only on event keys, proven by the sequential-vs-parallel
// identical-trace tests.
//
// # Determinism
//
// Every event carries a key (time, tiebreak, home, seq) and all
// ordering — per-shard pop order and the canonical trace — uses that
// key alone, never the shard index, so one seed produces the same
// execution with 1, 4 or 16 shards. The tiebreak is splitmix64 of the
// scheduler seed with the event's home and sequence, which decorrelates
// equal-time events without giving any fixed home priority. Events
// scheduled from inside an event derive their sequence from the parent
// event's key and a per-parent child counter — a pure function of the
// cascade, so replays are byte-for-byte (TraceHash). That derivation
// can give two events one key (children of externally scheduled events
// on one home), so each event also carries a lineage hash that orders
// exactly tied keys and stays out of the trace. Events scheduled
// from outside any event (live goroutines in integrated mode) draw
// from a global counter and are deterministic only as far as their
// callers are; the differential suite in internal/simtest holds the
// integrated engine to counter- and membership-level equivalence with
// the goroutine engine instead.
package des

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is a sharded discrete-event scheduler. Create one with
// NewScheduler, drive it either synchronously (Run, for pure event
// workloads; Await, for a blocking caller waiting on one cascade) or in
// the background (Start/Stop, for integrated mode where live goroutines
// block on its Clock), and read the replay evidence from
// TraceHash/EventsExecuted.
type Scheduler struct {
	seed   uint64
	shards []*shard
	base   time.Time

	// nowNS is the current virtual instant in nanoseconds since base;
	// read lock-free by Clock.Now on every caller.
	nowNS atomic.Int64

	// pending counts queued events across all shards; extSeq numbers
	// events scheduled from outside any event context.
	pending atomic.Int64
	extSeq  atomic.Uint64

	// activity is the quiescence counter the background runner settles
	// on: every schedule, execution batch and wake bumps it, and the
	// runner only advances virtual time after it has stayed still
	// through a yield-and-wait window (see settle).
	activity atomic.Uint64

	// kick (capacity 1) nudges the background runner out of its idle
	// wait when an event is scheduled or Stop is called.
	kick chan struct{}

	// trace is the FNV-1a fold of every executed event's key in
	// canonical order; executed counts them. Only the runner writes
	// them (runMu), so reads are only exact between runs/windows.
	trace    atomic.Uint64
	executed atomic.Uint64

	// runMu serializes window execution: Run, RunUntil, Await and the
	// Start runner must not interleave.
	runMu sync.Mutex

	// awaits counts Awaits that ran windows; the background runner
	// compares it across its settle wait and settles again when an
	// Await moved time meanwhile.
	awaits atomic.Uint64

	// workers is how many OS-schedulable executors share each pass's
	// shard batches (default GOMAXPROCS); jobs feeds the persistent
	// pool, live only while a run loop holds runMu. The pool is pure
	// execution fan-out: the trace is folded in global key order
	// *before* a pass runs, so worker interleaving can never reach it.
	workers int
	jobs    chan poolJob
	poolWG  sync.WaitGroup

	// passBatches and passIdx are the run loop's pass scratch: the
	// list of non-empty shard batches and foldTrace's merge cursors,
	// reused from one pass to the next. Run loop only (runMu).
	passBatches [][]event
	passIdx     []int

	stopMu  sync.Mutex
	stopped bool
	stopCh  chan struct{}
	doneCh  chan struct{}
}

// shard is one home-partitioned event queue. batch is the shard's
// reusable pass buffer: collectAt pops the instant's events into it,
// and the run loop owns it until the pass's barrier returns.
type shard struct {
	mu    sync.Mutex
	q     eventHeap
	batch []event
}

// event is one scheduled closure, held by value in the shard heaps and
// pass batches so a comparison reads contiguous memory instead of
// chasing two pointers. The key (at, tie, home, seq) is the execution
// order and the trace; fn runs at virtual instant at. release, when
// set, marks a clock wake (timer fire) that Stop must still deliver so
// no goroutine stays parked on a dead scheduler.
type event struct {
	at   int64
	tie  uint64
	home uint64
	seq  uint64
	// lin is the event's lineage: its own sequence for an event
	// scheduled from outside, a hash of the parent's lineage and the
	// child index otherwise. It orders events whose whole key ties —
	// children of externally scheduled events on one home can share a
	// sequence, since consecutive parent sequences overlap after the
	// child index is added — and stays out of the trace hash.
	lin uint64
	fn  func(ctx *Ctx)
	// release unblocks the event's waiter without running fn; nil for
	// ordinary events.
	release func()
}

// less is the total event order: time, then seeded tiebreak, then
// (home, seq), then lineage for a tied key. The shard index never
// participates, which is what makes the trace shard-count-invariant.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.tie != o.tie {
		return e.tie < o.tie
	}
	if e.home != o.home {
		return e.home < o.home
	}
	if e.seq != o.seq {
		return e.seq < o.seq
	}
	return e.lin < o.lin
}

// eventHeap is a 4-ary min-heap of events by value, ordered by less.
// A 4-ary heap halves the depth of a binary one, and the four children
// of a node sit next to each other in memory, so a sift touches fewer
// cache lines; push and pop move a hole instead of swapping.
type eventHeap []event

// push adds e, sifting the hole at the tail up to e's slot.
func (h *eventHeap) push(e event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the least event, sifting the hole at the
// root down to where the former tail belongs. The vacated tail slot is
// zeroed so the backing array keeps no stale closure alive.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+4, n); j < end; j++ {
				if q[j].less(&q[m]) {
					m = j
				}
			}
			if !q[m].less(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	*h = q
	return top
}

// Ctx is the execution context handed to every event. Scheduling
// through it derives the child's sequence from this event's key, so
// cascades replay byte-for-byte; scheduling through the Scheduler
// draws from the global counter instead.
type Ctx struct {
	s      *Scheduler
	home   uint64
	seq    uint64
	lin    uint64
	childN uint64
}

// Scheduler returns the scheduler this event runs on.
func (c *Ctx) Scheduler() *Scheduler { return c.s }

// At schedules fn after d (clamped to now) with a sequence and
// lineage derived from this event: child i of event (home, seq)
// always gets the same key, whatever the shard count.
func (c *Ctx) At(d time.Duration, home uint64, fn func(ctx *Ctx)) {
	c.childN++
	seq := splitmix64((c.seq ^ splitmix64(c.home)) + c.childN)
	c.s.schedule(d, home, seq, splitmix64(c.lin^splitmix64(c.childN)), fn, nil)
}

// NewScheduler returns a scheduler with the given seed and shard
// count (floored at 1). The virtual epoch is a fixed instant so two
// schedulers with one seed agree on every timestamp.
func NewScheduler(seed int64, shards int) *Scheduler {
	if shards < 1 {
		shards = 1
	}
	s := &Scheduler{
		seed:    splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15),
		shards:  make([]*shard, shards),
		base:    time.Unix(1_000_000_000, 0).UTC(),
		kick:    make(chan struct{}, 1),
		workers: runtime.GOMAXPROCS(0),
	}
	for i := range s.shards {
		s.shards[i] = &shard{}
	}
	s.trace.Store(fnvOffset)
	return s
}

// Shards reports the shard count.
func (s *Scheduler) Shards() int { return len(s.shards) }

// SetWorkers sets how many executors (the calling run loop plus n-1
// pool goroutines) share each pass's shard batches; n < 1 is floored
// to 1, which runs every batch inline on the run loop. Call it before
// Run/RunUntil/Start — the pool is sized when a run loop begins.
// Worker count never affects the trace hash, only wall-clock.
func (s *Scheduler) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers reports the configured executor count.
func (s *Scheduler) Workers() int { return s.workers }

// poolJob asks one pool worker to join a pass's batch claim loop; wg
// is the pass barrier the worker signals when the claim loop is dry.
type poolJob struct {
	run func()
	wg  *sync.WaitGroup
}

// startPool brings up the persistent worker pool (workers-1 goroutines;
// the run loop itself is the last executor) and reports whether it did;
// false means no pool is needed or another run loop already owns one.
// Caller holds runMu.
func (s *Scheduler) startPool() bool {
	if s.workers <= 1 || s.jobs != nil {
		return false
	}
	s.jobs = make(chan poolJob, s.workers)
	for i := 0; i < s.workers-1; i++ {
		s.poolWG.Add(1)
		go func() {
			defer s.poolWG.Done()
			for job := range s.jobs {
				job.run()
				job.wg.Done()
			}
		}()
	}
	return true
}

// stopPool tears the pool down and waits for the workers to exit, so
// a run loop never leaks goroutines past its return. Caller holds
// runMu; passes never straddle this (executeBarrier waits for every
// job it issued).
func (s *Scheduler) stopPool() {
	if s.jobs == nil {
		return
	}
	close(s.jobs)
	s.poolWG.Wait()
	s.jobs = nil
}

// panicCell captures the first panic raised by any batch executor so
// the pass barrier still completes — a panicking event must not wedge
// the other shards' workers — and the run loop can rethrow it after
// the barrier with normal panic semantics.
type panicCell struct {
	mu  sync.Mutex
	val any
	set bool
}

// capture is deferred around each batch; it records the first panic
// and swallows it so the executor can signal the barrier.
func (p *panicCell) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if !p.set {
			p.val, p.set = r, true
		}
		p.mu.Unlock()
	}
}

// rethrow re-raises the captured panic on the run loop, if any.
func (p *panicCell) rethrow() {
	if p.set {
		panic(p.val)
	}
}

// Now returns the current virtual instant.
func (s *Scheduler) Now() time.Time { return s.base.Add(time.Duration(s.nowNS.Load())) }

// NowNS returns the current virtual instant in nanoseconds since the
// virtual epoch.
func (s *Scheduler) NowNS() int64 { return s.nowNS.Load() }

// At schedules fn after d (clamped to now) on the given home, with a
// globally drawn sequence. Use Ctx.At from inside events when replay
// determinism of the cascade matters.
func (s *Scheduler) At(d time.Duration, home uint64, fn func(ctx *Ctx)) {
	seq := s.extSeq.Add(1)
	s.schedule(d, home, seq, seq, fn, nil)
}

// schedule enqueues one event; release is non-nil for clock wakes.
func (s *Scheduler) schedule(d time.Duration, home, seq, lin uint64, fn func(ctx *Ctx), release func()) {
	if d < 0 {
		d = 0
	}
	at := s.nowNS.Load() + int64(d)
	e := event{
		at:      at,
		tie:     splitmix64(s.seed ^ splitmix64(home)*0x9e3779b97f4a7c15 ^ seq),
		home:    home,
		seq:     seq,
		lin:     lin,
		fn:      fn,
		release: release,
	}
	// Count before the push: a run loop that pops the event in between
	// would otherwise read pending low and stop with the event queued.
	// Reading it high costs at most an empty window.
	s.pending.Add(1)
	sh := s.shards[home%uint64(len(s.shards))]
	sh.mu.Lock()
	sh.q.push(e)
	sh.mu.Unlock()
	s.Bump()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Bump records external activity for the quiescence heuristic. The
// netsim integration calls it on operations the scheduler cannot see
// (queue admissions, channel deliveries) so the background runner
// keeps virtual time still while live goroutines are mid-operation.
func (s *Scheduler) Bump() { s.activity.Add(1) }

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int { return int(s.pending.Load()) }

// EventsExecuted reports how many events have run.
func (s *Scheduler) EventsExecuted() uint64 { return s.executed.Load() }

// TraceHash is the FNV-1a fold of every executed event's key in
// canonical (globally sorted) order. Two runs from one seed — at any
// shard count — must produce the same hash for pure event cascades;
// the determinism suite pins exactly that.
func (s *Scheduler) TraceHash() uint64 { return s.trace.Load() }

// Run drains the queue synchronously: windows execute until no events
// remain. It is the pure-DES entry point; do not mix with Start.
func (s *Scheduler) Run() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.drive(func() bool { return false })
}

// RunUntil drains the queue up to and including virtual instant
// (base + d); later events stay queued and virtual time parks at the
// horizon, so a workload with self-rescheduling events (heartbeats)
// still terminates.
func (s *Scheduler) RunUntil(d time.Duration) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	horizon := int64(d)
	s.drive(func() bool {
		next, ok := s.peekNext()
		return !ok || next > horizon
	})
	if s.nowNS.Load() < horizon {
		s.nowNS.Store(horizon)
	}
}

// ErrStalled reports an Await whose queue drained before its done
// channel closed: no queued event is left that could ever close it.
var ErrStalled = errors.New("des: queue drained before the awaited cascade finished")

// Await runs windows on the calling goroutine until done closes — the
// idea behind SimPy's run(until=event). A blocking caller seeds an
// event cascade (Scheduler.At) whose last step closes done, then awaits
// it: no settle wait, no hand-off to the background runner, the
// caller's own goroutine executes the cascade and whatever else is due
// before it. Await works with or without Start; while the background
// runner is up they take turns on the run lock, and the runner settles
// again before its next window (goroutines an Await woke get their
// quiet window). It returns ErrStalled when the queue drains first.
//
// Never call Await (or a blocking call built on it) from inside an
// event: the run lock is held there and Await would deadlock.
func (s *Scheduler) Await(done <-chan struct{}) error {
	if isClosed(done) {
		return nil
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.drive(func() bool { return isClosed(done) }) > 0 {
		s.awaits.Add(1)
	}
	if !isClosed(done) {
		return ErrStalled
	}
	return nil
}

// isClosed polls a done channel without blocking.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// drive is the one run loop behind Run, RunUntil and Await: execute
// windows until the queue drains or stop reports true, and report how
// many windows ran. It brings up the worker pool for its own duration
// unless the background runner already owns one. Caller holds runMu.
func (s *Scheduler) drive(stop func() bool) (windows int) {
	if s.startPool() {
		defer s.stopPool()
	}
	for s.pending.Load() > 0 && !stop() {
		s.runWindow()
		windows++
	}
	return windows
}

// peekNext reports the earliest pending instant across shards.
func (s *Scheduler) peekNext() (int64, bool) {
	next, ok := int64(0), false
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.q) > 0 && (!ok || sh.q[0].at < next) {
			next, ok = sh.q[0].at, true
		}
		sh.mu.Unlock()
	}
	return next, ok
}

// runWindow advances virtual time to the earliest pending instant and
// executes every event at it, in passes: each pass pops the instant's
// events from all shards, folds them into the trace in global key
// order, then executes them shard-parallel with a barrier at the end.
// Events scheduled during a pass at (or clamped to) the same instant
// run in a later pass of the same window.
func (s *Scheduler) runWindow() {
	t, ok := s.peekNext()
	if !ok {
		return
	}
	s.nowNS.Store(t)
	for {
		batches := s.collectAt(t)
		if len(batches) == 0 {
			return
		}
		s.foldTrace(batches)
		s.executeBarrier(batches)
	}
}

// collectAt pops every event scheduled at instant t, one ordered batch
// per shard (only non-empty batches are returned). The batches live in
// the shards' reusable buffers and the returned list in the
// scheduler's pass scratch, both valid until the next collectAt; the
// previous pass's closures are cleared before a buffer is refilled.
func (s *Scheduler) collectAt(t int64) [][]event {
	batches := s.passBatches[:0]
	popped := 0
	for _, sh := range s.shards {
		clear(sh.batch)
		batch := sh.batch[:0]
		sh.mu.Lock()
		for len(sh.q) > 0 && sh.q[0].at == t {
			batch = append(batch, sh.q.pop())
		}
		sh.mu.Unlock()
		sh.batch = batch
		if len(batch) > 0 {
			popped += len(batch)
			batches = append(batches, batch)
		}
	}
	s.passBatches = batches
	if popped > 0 {
		s.pending.Add(int64(-popped))
	}
	return batches
}

// foldTrace merges the pass's per-shard batches (each already in key
// order) into the canonical global order and folds their keys into the
// trace hash. The merge ignores which shard a batch came from — only
// the key decides — so the hash is shard-count-invariant.
func (s *Scheduler) foldTrace(batches [][]event) {
	idx := append(s.passIdx[:0], make([]int, len(batches))...)
	s.passIdx = idx
	h := s.trace.Load()
	total := 0
	for {
		best := -1
		for i, batch := range batches {
			if idx[i] >= len(batch) {
				continue
			}
			if best < 0 || batch[idx[i]].less(&batches[best][idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := &batches[best][idx[best]]
		idx[best]++
		total++
		h = fnv1a(h, uint64(e.at))
		h = fnv1a(h, e.tie)
		h = fnv1a(h, e.home)
		h = fnv1a(h, e.seq)
	}
	s.trace.Store(h)
	s.executed.Add(uint64(total))
	s.activity.Add(uint64(total))
}

// executeBarrier runs the pass's batches across the worker pool and
// waits for all of them: the cross-shard synchronization barrier. The
// run loop and up to workers-1 pool workers each pull the next
// unclaimed batch from a shared counter until none remain, so load
// balances when batches outnumber workers and idle workers cost
// nothing when they don't. A single-batch pass — or a workers=1 /
// poolless scheduler — runs inline, byte-for-byte the sequential
// semantics. A panicking event is captured so every executor still
// reaches the barrier, then rethrown on the run loop.
func (s *Scheduler) executeBarrier(batches [][]event) {
	var pan panicCell
	if len(batches) == 1 || s.jobs == nil {
		for _, batch := range batches {
			s.runBatch(batch, &pan)
		}
		pan.rethrow()
		return
	}
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(batches) {
				return
			}
			s.runBatch(batches[i], &pan)
		}
	}
	helpers := len(batches) - 1
	if m := s.workers - 1; helpers > m {
		helpers = m
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		s.jobs <- poolJob{run: claim, wg: &wg}
	}
	claim()
	wg.Wait()
	pan.rethrow()
}

// runBatch executes one shard batch in key order; a panic skips the
// batch's remaining events and is parked in pan for the run loop.
func (s *Scheduler) runBatch(batch []event, pan *panicCell) {
	defer pan.capture()
	for i := range batch {
		e := &batch[i]
		ctx := &Ctx{s: s, home: e.home, seq: e.seq, lin: e.lin}
		if e.fn != nil {
			e.fn(ctx)
		} else if e.release != nil {
			e.release()
		}
	}
}

// drainReleases pops every queued event and runs the release hooks
// (clock wakes) so no goroutine stays parked on a stopped scheduler;
// ordinary event closures are dropped unrun.
func (s *Scheduler) drainReleases() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		q := sh.q
		sh.q = nil
		sh.mu.Unlock()
		s.pending.Add(int64(-len(q)))
		for i := range q {
			if e := &q[i]; e.release != nil {
				e.release()
			}
		}
	}
}

// fnv1a constants and fold (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// splitmix64 is the finalizer from Vigna's splitmix64 generator — the
// same mixer the faults plane uses for its pure draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
