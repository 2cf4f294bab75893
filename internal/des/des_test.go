package des

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seedCascade schedules a deterministic event cascade: nroots root
// events, each of which fans out to children on other homes, to a
// bounded depth, with every delay, home and fan-out a pure function of
// a state word threaded through the closures. It is the pure-DES
// workload the replay guarantee is claimed for. The returned channel
// closes when the cascade's last event finishes, the way a blocking
// caller's handshake cascade signals Await.
func seedCascade(s *Scheduler, nroots, depth int) <-chan struct{} {
	done := make(chan struct{})
	var live atomic.Int64
	var grow func(ctx *Ctx, state uint64, depth int)
	grow = func(ctx *Ctx, state uint64, depth int) {
		defer func() {
			if live.Add(-1) == 0 {
				close(done)
			}
		}()
		if depth <= 0 {
			return
		}
		fan := int(state%3) + 1
		for i := 0; i < fan; i++ {
			st := splitmix64(state + uint64(i))
			delay := time.Duration(st%5_000) * time.Microsecond // 0..5ms incl. 0: same-window cascades
			home := st >> 32
			live.Add(1)
			ctx.At(delay, home, func(ctx *Ctx) { grow(ctx, st, depth-1) })
		}
	}
	live.Add(int64(nroots))
	for r := 0; r < nroots; r++ {
		st := splitmix64(uint64(r) * 0x517cc1b727220a95)
		home := st >> 32
		d := depth
		s.At(time.Duration(r%7)*time.Millisecond, home, func(ctx *Ctx) { grow(ctx, st, d) })
	}
	return done
}

// runCascade builds, seeds and drains one scheduler, returning its
// trace hash and executed-event count.
func runCascade(seed int64, shards, nroots, depth int) (uint64, uint64) {
	s := NewScheduler(seed, shards)
	seedCascade(s, nroots, depth)
	s.Run()
	return s.TraceHash(), s.EventsExecuted()
}

// TestTraceHashReplaysAcrossShardCounts is the determinism satellite:
// one seed must produce an identical event trace hash at 1, 4 and 16
// shards — the shard index never participates in event ordering — and
// re-running any shard count must replay the hash byte-for-byte.
func TestTraceHashReplaysAcrossShardCounts(t *testing.T) {
	const nroots, depth = 40, 5
	for _, seed := range []int64{1, 42, 99991} {
		h1, n1 := runCascade(seed, 1, nroots, depth)
		if n1 == 0 {
			t.Fatalf("seed %d: cascade executed no events", seed)
		}
		for _, shards := range []int{1, 4, 16} {
			h, n := runCascade(seed, shards, nroots, depth)
			if h != h1 || n != n1 {
				t.Errorf("seed %d: shards=%d trace (hash %#x, %d events) != shards=1 trace (hash %#x, %d events)",
					seed, shards, h, n, h1, n1)
			}
			// Same seed, same shard count, run again: byte-for-byte replay.
			h2, n2 := runCascade(seed, shards, nroots, depth)
			if h2 != h || n2 != n {
				t.Errorf("seed %d shards=%d: replay diverged: %#x/%d vs %#x/%d", seed, shards, h2, n2, h, n)
			}
		}
	}
}

// TestTraceHashSeedSensitive: different seeds must produce different
// tie-breaks and therefore different traces — if they did not, the
// splitmix64 tie-break would not actually be seeded.
func TestTraceHashSeedSensitive(t *testing.T) {
	h1, _ := runCascade(7, 4, 30, 4)
	h2, _ := runCascade(8, 4, 30, 4)
	if h1 == h2 {
		t.Fatalf("seeds 7 and 8 produced the same trace hash %#x", h1)
	}
}

// TestSameInstantCascadeRunsToFixpoint: an event that schedules work
// at zero delay must see that work run in the same window (a later
// pass), with virtual time not advancing in between.
func TestSameInstantCascadeRunsToFixpoint(t *testing.T) {
	s := NewScheduler(1, 4)
	var order []int
	var mu sync.Mutex
	var at1, at2 int64
	s.At(time.Second, 1, func(ctx *Ctx) {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		at1 = ctx.Scheduler().NowNS()
		ctx.At(0, 2, func(ctx *Ctx) {
			mu.Lock()
			order = append(order, 2)
			mu.Unlock()
			at2 = ctx.Scheduler().NowNS()
		})
	})
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("execution order = %v, want [1 2]", order)
	}
	if at1 != at2 {
		t.Fatalf("zero-delay child ran at %d, parent at %d: same-instant cascade left the window", at2, at1)
	}
	if at1 != int64(time.Second) {
		t.Fatalf("window ran at %d, want %d", at1, int64(time.Second))
	}
}

// TestPastSchedulingClamps: negative delays clamp to the current
// instant instead of scheduling into the past.
func TestPastSchedulingClamps(t *testing.T) {
	s := NewScheduler(1, 2)
	ran := false
	s.At(time.Second, 1, func(ctx *Ctx) {
		ctx.At(-time.Hour, 2, func(ctx *Ctx) {
			ran = true
			if got := ctx.Scheduler().NowNS(); got != int64(time.Second) {
				t.Errorf("past-scheduled event ran at %d, want clamp to %d", got, int64(time.Second))
			}
		})
	})
	s.Run()
	if !ran {
		t.Fatal("clamped event never ran")
	}
}

// TestRunUntilParksAtHorizon: a self-rescheduling heartbeat must not
// keep RunUntil alive past its horizon, and virtual time must finish
// exactly at the horizon.
func TestRunUntilParksAtHorizon(t *testing.T) {
	s := NewScheduler(1, 2)
	var beats atomic.Int64
	var heartbeat func(ctx *Ctx)
	heartbeat = func(ctx *Ctx) {
		beats.Add(1)
		ctx.At(time.Second, 1, heartbeat)
	}
	s.At(time.Second, 1, heartbeat)
	s.RunUntil(10 * time.Second)
	if got := beats.Load(); got != 10 {
		t.Fatalf("heartbeat ran %d times inside a 10s horizon, want 10", got)
	}
	if got := s.NowNS(); got != int64(10*time.Second) {
		t.Fatalf("virtual time parked at %d, want the 10s horizon", got)
	}
	if s.Pending() == 0 {
		t.Fatal("the next heartbeat should still be queued past the horizon")
	}
}

// TestClockSleepAdvancesVirtualTime: with the background runner on, a
// Sleep must return having consumed virtual — not real — time.
func TestClockSleepAdvancesVirtualTime(t *testing.T) {
	s := NewScheduler(1, 4)
	s.Start()
	defer s.Stop()
	clock := s.Clock()
	start := clock.Now()
	realStart := time.Now()
	clock.Sleep(10 * time.Hour)
	if got := clock.Now().Sub(start); got < 10*time.Hour {
		t.Fatalf("virtual elapsed %v, want >= 10h", got)
	}
	if real := time.Since(realStart); real > 5*time.Second {
		t.Fatalf("a 10h virtual sleep took %v of real time", real)
	}
}

// TestClockConcurrentSleepersShareWindows: sleepers parked for the
// same duration from the same frozen instant wake together, and the
// runner keeps ordering among different deadlines. Every wake is queued
// before the runner starts, so all 32 sleepers really do start from
// one instant: each wakes at its own deadline, and the 32 wakes run as
// exactly 32 events. A sleeper may read the clock a window or more
// after its wake, but never past the last deadline.
func TestClockConcurrentSleepersShareWindows(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Stop()
	clock := s.Clock()
	const n = 32
	type wake struct{ d, got time.Duration }
	woke := make(chan wake, n)
	for i := 0; i < n; i++ {
		d := time.Duration(1+i%4) * time.Minute
		go func() {
			before := clock.Now()
			clock.Sleep(d)
			woke <- wake{d: d, got: clock.Now().Sub(before)}
		}()
	}
	for s.Pending() < n {
		runtime.Gosched()
	}
	s.Start()
	for i := 0; i < n; i++ {
		w := <-woke
		if w.got < w.d || w.got > 4*time.Minute {
			t.Fatalf("sleeper for %v woke after %v, want within [%v, 4m]", w.d, w.got, w.d)
		}
	}
	if got := s.EventsExecuted(); got != n {
		t.Fatalf("%d events executed, want the %d wakes", got, n)
	}
}

// TestClockAfterDeliversVirtualFireTime: After's channel carries the
// virtual instant of the fire.
func TestClockAfterDeliversVirtualFireTime(t *testing.T) {
	s := NewScheduler(1, 2)
	s.Start()
	defer s.Stop()
	clock := s.Clock()
	ch := clock.After(time.Hour)
	fired := <-ch
	if got := fired.Sub(s.base); got < time.Hour {
		t.Fatalf("After fired at virtual +%v, want >= 1h", got)
	}
}

// TestSleepCtxCancel: a canceled context unparks SleepCtx immediately.
func TestSleepCtxCancel(t *testing.T) {
	s := NewScheduler(1, 2)
	// No runner: time never advances, so only cancellation can unpark.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.SleepCtx(ctx, time.Hour) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled SleepCtx returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled SleepCtx never returned")
	}
	s.Stop()
}

// TestStopReleasesParkedSleepers: stopping the scheduler must unpark
// every goroutine blocked in Sleep, or integrated-mode teardown leaks.
func TestStopReleasesParkedSleepers(t *testing.T) {
	s := NewScheduler(1, 4)
	// No Start: nothing will ever fire these timers.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Clock().Sleep(time.Hour)
		}()
	}
	// Let the sleepers register before stopping.
	for s.Pending() < 8 {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left sleepers parked")
	}
}

// TestAfterFuncRunsInsideScheduler: an AfterFunc callback is the wake
// event itself. Arming it starts no goroutine, it runs inside Run at
// its virtual instant, and Stop runs the callbacks still queued that
// nobody stopped.
func TestAfterFuncRunsInsideScheduler(t *testing.T) {
	s := NewScheduler(1, 4)
	s.SetWorkers(1) // no pool: Run executes every event on this goroutine
	clock := s.Clock()
	base := runtime.NumGoroutine()
	var at time.Duration
	inside := 0
	clock.AfterFunc(time.Hour, func() {
		at = s.Now().Sub(s.base)
		inside = runtime.NumGoroutine()
	})
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("arming AfterFunc started %d goroutines, want none", n-base)
	}
	if s.Pending() != 1 {
		t.Fatalf("%d events pending after arming, want the one wake event", s.Pending())
	}
	s.Run()
	if at != time.Hour || s.EventsExecuted() != 1 {
		t.Fatalf("f ran at virtual +%v after %d events, want +1h as the one event", at, s.EventsExecuted())
	}
	if inside > base {
		t.Errorf("f ran beside %d goroutines the scheduler started, want none", inside-base)
	}

	var kept, dropped atomic.Bool
	clock.AfterFunc(time.Hour, func() { kept.Store(true) })
	stop := clock.AfterFunc(time.Hour, func() { dropped.Store(true) })
	stop()
	s.Stop()
	if !kept.Load() {
		t.Error("Stop dropped a callback nobody stopped")
	}
	if dropped.Load() {
		t.Error("Stop ran a stopped callback")
	}
}

// TestStartStopIdempotent: double Start and double Stop are safe, and
// a stopped scheduler stays stopped.
func TestStartStopIdempotent(t *testing.T) {
	s := NewScheduler(1, 2)
	s.Start()
	s.Start()
	s.Stop()
	s.Stop()
	s.Start() // after Stop: must be a no-op, not a resurrection
	s.Stop()
}

// TestWindowBatchingCollapsesSharedDeadlines: n sleepers sharing one
// deadline produce one window (one distinct execution instant), which
// is the property that makes wall-clock cost scale with event count,
// not device count times timer granularity.
func TestWindowBatchingCollapsesSharedDeadlines(t *testing.T) {
	s := NewScheduler(1, 8)
	const n = 1000
	var instants sync.Map
	for i := 0; i < n; i++ {
		s.At(time.Second, uint64(i), func(ctx *Ctx) {
			instants.Store(ctx.Scheduler().NowNS(), true)
		})
	}
	s.Run()
	count := 0
	instants.Range(func(_, _ any) bool { count++; return true })
	if count != 1 {
		t.Fatalf("%d sleepers with one deadline executed across %d instants, want 1", n, count)
	}
	if got := s.EventsExecuted(); got != n {
		t.Fatalf("executed %d events, want %d", got, n)
	}
}
