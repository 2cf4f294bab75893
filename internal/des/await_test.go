package des

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestAwaitReturnsWhenDoneCloses: Await runs the caller's cascade to
// completion on its own goroutine with no background runner, and
// beside a running one.
func TestAwaitReturnsWhenDoneCloses(t *testing.T) {
	for _, started := range []bool{false, true} {
		s := NewScheduler(9, 4)
		if started {
			s.Start()
		}
		done := seedCascade(s, 20, 4)
		if err := s.Await(done); err != nil {
			t.Fatalf("started=%v: Await: %v", started, err)
		}
		if !isClosed(done) {
			t.Fatalf("started=%v: Await returned before its cascade finished", started)
		}
		s.Stop()
	}
}

// TestAwaitStopsAtDone: Await runs no window past the one that closes
// done; later events stay queued and virtual time stays at the close.
func TestAwaitStopsAtDone(t *testing.T) {
	s := NewScheduler(1, 2)
	done := make(chan struct{})
	later := false
	s.At(time.Second, 1, func(*Ctx) { close(done) })
	s.At(time.Hour, 2, func(*Ctx) { later = true })
	if err := s.Await(done); err != nil {
		t.Fatal(err)
	}
	if later || s.Pending() != 1 {
		t.Fatalf("Await ran past done: later=%v pending=%d", later, s.Pending())
	}
	if got := s.Now().Sub(s.base); got != time.Second {
		t.Fatalf("virtual time %v after Await, want 1s", got)
	}
	// done already closed: Await returns without running anything.
	if err := s.Await(done); err != nil || s.Pending() != 1 {
		t.Fatalf("Await on a closed channel: err=%v pending=%d", err, s.Pending())
	}
}

// TestAwaitDrainedQueueErrors: a cascade that never closes done makes
// Await return ErrStalled once the queue is empty, instead of spinning.
func TestAwaitDrainedQueueErrors(t *testing.T) {
	s := NewScheduler(1, 2)
	ran := 0
	s.At(time.Second, 1, func(ctx *Ctx) {
		ran++
		ctx.At(time.Second, 2, func(*Ctx) { ran++ })
	})
	done := make(chan struct{})
	if err := s.Await(done); !errors.Is(err, ErrStalled) {
		t.Fatalf("Await on a cascade that never closes done: err=%v, want ErrStalled", err)
	}
	if ran != 2 || s.Pending() != 0 {
		t.Fatalf("ran %d events with %d pending, want 2 and 0", ran, s.Pending())
	}
	if err := s.Await(done); !errors.Is(err, ErrStalled) {
		t.Fatalf("Await on an empty queue: err=%v, want ErrStalled", err)
	}
}

// TestAwaitTraceMatchesRun: awaiting a cascade executes exactly what
// Run executes — same trace hash, same event count — across shard and
// worker counts, and the pool Await brings up does not outlive it.
func TestAwaitTraceMatchesRun(t *testing.T) {
	defer testutil.CheckNoLeaks(t, testutil.Snapshot())
	const nroots, depth = 40, 5
	for _, seed := range []int64{3, 1337} {
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 2, 4} {
				hr, nr := runCascadeWorkers(seed, shards, workers, nroots, depth)
				s := NewScheduler(seed, shards)
				s.SetWorkers(workers)
				if err := s.Await(seedCascade(s, nroots, depth)); err != nil {
					t.Fatalf("seed %d shards=%d workers=%d: %v", seed, shards, workers, err)
				}
				if h, n := s.TraceHash(), s.EventsExecuted(); h != hr || n != nr || s.Pending() != 0 {
					t.Errorf("seed %d shards=%d workers=%d: Await trace (%#x, %d events, %d pending) != Run trace (%#x, %d events)",
						seed, shards, workers, h, n, s.Pending(), hr, nr)
				}
			}
		}
	}
}

// TestAwaitBesideRunnerAndSleepers: Awaits on the caller's goroutine
// share the scheduler with the background runner and with goroutines
// parked on its Clock. Every cascade completes, every sleeper wakes,
// and Stop finds nothing stuck (the race detector checks the hand-offs
// of the run lock).
func TestAwaitBesideRunnerAndSleepers(t *testing.T) {
	s := NewScheduler(4, 4)
	s.SetWorkers(2)
	s.Start()
	defer s.Stop()
	clock := s.Clock()
	const sleepers = 8
	woke := make(chan struct{}, sleepers)
	for i := 0; i < sleepers; i++ {
		d := time.Duration(1+i) * time.Millisecond
		go func() {
			clock.Sleep(d)
			woke <- struct{}{}
		}()
	}
	for r := 0; r < 20; r++ {
		if err := s.Await(seedCascade(s, 5, 3)); err != nil {
			t.Fatalf("cascade %d: %v", r, err)
		}
	}
	for i := 0; i < sleepers; i++ {
		<-woke
	}
}

// TestAwaitConcurrentCallers: several goroutines await their own
// cascades at once, with and without the background runner. They take
// turns on the run lock and any of them may execute another's events,
// so every cascade must still complete and none may see ErrStalled.
func TestAwaitConcurrentCallers(t *testing.T) {
	for _, started := range []bool{false, true} {
		s := NewScheduler(6, 4)
		s.SetWorkers(2)
		if started {
			s.Start()
		}
		const callers, cascades = 4, 10
		errs := make(chan error, callers*cascades)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cascades; i++ {
					errs <- s.Await(seedCascade(s, 4, 3))
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("started=%v: %v", started, err)
			}
		}
		s.Stop()
	}
}
