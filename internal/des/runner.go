package des

import (
	"runtime"
	"time"
)

// This file is the integrated-mode runner: a background goroutine that
// advances virtual time only when the live goroutines riding the
// scheduler's Clock have gone quiet. Pure event workloads never need
// it — they call Run — but a full deployment (daemons, servers,
// clients) blocks real goroutines on Clock timers and on the netsim
// DES engine's queues, and something must decide "everyone is waiting
// for time now" before popping the next window.
//
// Quiescence is a heuristic, detected at the scheduler boundary: every
// schedule, timer wake and instrumented transport operation bumps the
// activity counter, and the runner advances only after the counter has
// stayed still through a few scheduler yields plus one short real-time
// wait (settleQuantum). A goroutine that was just woken by an event
// gets the CPU during the yields (this is also what keeps the check
// cheap: on an idle system the Gosched round trip is sub-microsecond),
// runs to its next blocking point, and any operation it performs on
// the way bumps the counter and restarts the wait. The residual race —
// a goroutine computing for longer than the settle window without
// touching the scheduler or the transport — can only skew virtual
// timestamps, never corrupt state: events scheduled "in the past" are
// clamped to the current instant, exactly as if the caller were slow
// in real life. The differential suite therefore compares engines on
// time-independent observables (delivered bytes, fault counters, group
// membership), and the byte-for-byte trace guarantee is claimed for
// pure event cascades only (see the package comment).
//
// settleQuantum trades advance latency against advance safety: the
// runner burns one such real quiet window per executed... window. The
// wait is a spin of scheduler yields bounded by a monotonic deadline,
// NOT a timer sleep: sub-millisecond time.Sleep calls cost hundreds of
// microseconds in the runtime's timer machinery, and a large sweep
// executes hundreds of thousands of windows — a 50µs timer sleep per
// window turned a 10k-device sweep into minutes. The spin yields the
// CPU to any woken goroutine the whole time, so it is as safe as the
// sleep for detecting their activity and an order of magnitude
// cheaper.
const (
	settleQuantum = 10 * time.Microsecond
	settleYields  = 4
	// settleRounds caps how many times a changing activity counter can
	// restart the quiet wait before the runner advances anyway. Under
	// heavy staggered throughput (thousands of drivers mid-transport-op
	// at once) a global quiet moment may never come — and that is
	// exactly the regime where advancing early is safe: the goroutines
	// restarting the wait are inside scheduler-visible operations whose
	// events clamp to the current instant, so the only cost is virtual
	// timestamp skew. The dangerous case — a goroutine computing
	// silently between operations — looks quiet and is not affected by
	// the cap at all.
	settleRounds = 2
)

// Start launches the background runner. It is the integrated-mode
// counterpart of Run; call Stop to halt it and release every parked
// clock waiter. Start after the deployment's goroutines exist or
// before — the runner only moves time when nothing else is runnable.
func (s *Scheduler) Start() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.stopCh != nil || s.stopped {
		return
	}
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	go s.run(s.stopCh, s.doneCh)
}

// Stop halts the runner, waits for it to exit, and fires the release
// hook of every still-queued clock wake so no goroutine stays parked
// on a dead scheduler: sleepers wake, After channels fire and AfterFunc
// callbacks not yet stopped run. Ordinary events are discarded. Stop the
// deployment (which unblocks its goroutines through conn teardown)
// before stopping its scheduler.
func (s *Scheduler) Stop() {
	s.stopMu.Lock()
	if s.stopped {
		s.stopMu.Unlock()
		return
	}
	s.stopped = true
	stopCh, doneCh := s.stopCh, s.doneCh
	s.stopMu.Unlock()
	if stopCh != nil {
		close(stopCh)
		select {
		case s.kick <- struct{}{}:
		default:
		}
		<-doneCh
	}
	s.drainReleases()
}

// run is the runner loop: wait for events, settle, execute one window.
// It owns the worker pool for its lifetime so integrated-mode windows
// get the same multi-core batch execution as Run.
func (s *Scheduler) run(stopCh chan struct{}, doneCh chan struct{}) {
	defer close(doneCh)
	s.runMu.Lock()
	s.startPool()
	s.runMu.Unlock()
	defer func() {
		s.runMu.Lock()
		s.stopPool()
		s.runMu.Unlock()
	}()
	for {
		select {
		case <-stopCh:
			return
		default:
		}
		if s.pending.Load() == 0 {
			select {
			case <-stopCh:
				return
			case <-s.kick:
				continue
			}
		}
		awaits := s.awaits.Load()
		if !s.settle(stopCh) {
			return
		}
		s.runMu.Lock()
		// An Await that ran windows while this runner settled may have
		// woken goroutines the settle never saw: settle again first.
		if s.awaits.Load() == awaits {
			s.runWindow()
		}
		s.runMu.Unlock()
	}
}

// settle blocks until the activity counter survives a full quiet
// window — settleYields scheduler yields and one settleQuantum of real
// time — unchanged. It returns false when the scheduler is stopping.
//
//phvet:ignore walltime the settle wait is the one sanctioned real-time primitive in the DES core: it measures "are the live goroutines still running", which is a property of the host scheduler, not of virtual time. See DESIGN.md "Discrete-event core".
func (s *Scheduler) settle(stopCh chan struct{}) bool {
	for round := 0; ; round++ {
		select {
		case <-stopCh:
			return false
		default:
		}
		before := s.activity.Load()
		for i := 0; i < settleYields; i++ {
			runtime.Gosched()
		}
		if s.activity.Load() != before {
			if round >= settleRounds {
				return true // advance through the churn; see settleRounds
			}
			continue
		}
		// Quiet through the yields: hold the line for one real
		// settleQuantum, still yielding, so a goroutine that was woken
		// but not yet scheduled gets its chance to run and bump.
		//phvet:ignore walltime see the function comment: real-time quiet window for host-scheduler quiescence.
		deadline := time.Now().Add(settleQuantum)
		quiet := true
		//phvet:ignore walltime bounded spin on the same quiet window.
		for time.Now().Before(deadline) {
			runtime.Gosched()
			if s.activity.Load() != before {
				quiet = false
				break
			}
		}
		if quiet && s.activity.Load() == before {
			return true
		}
	}
}
