package des

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/vtime"
)

// Clock returns a vtime.Clock driven by the scheduler's virtual time.
// Sleeping on it parks the caller until the runner pops the deadline
// event; no real time passes beyond the runner's settle overhead. Hand
// it to radio.NewEnvironment via radio.WithClock and the entire stack
// above — mobility, fault windows, robust-call deadlines, breakers,
// daemon loops — rides virtual time with no further changes: that is
// the Clock half of the engine seam.
func (s *Scheduler) Clock() vtime.Clock { return desClock{s: s} }

type desClock struct {
	s *Scheduler
}

// timer schedules a clock wake after d: an event whose release runs
// when it pops and, for a wake still queued, at Stop. Its home is a mix
// of its sequence draw, which spreads timers across shards without any
// caller input.
func (s *Scheduler) timer(d time.Duration, release func()) {
	seq := s.extSeq.Add(1)
	home := splitmix64(seq ^ 0x7465722d686f6d65) // "ter-home"
	s.schedule(d, home, seq, seq, nil, release)
}

// Now implements vtime.Clock on the virtual instant.
func (c desClock) Now() time.Time { return c.s.Now() }

// Sleep implements vtime.Clock: it schedules a wake event at now+d and
// parks until the runner delivers it. Stop releases parked sleepers.
func (c desClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.s.timer(d, func() { close(done) })
	<-done
}

// After implements vtime.Clock. The returned channel has capacity 1
// and receives the virtual fire time; a raw select on it is an
// untracked wake, which the runner's settle window absorbs.
func (c desClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.s.Now()
		return ch
	}
	c.s.timer(d, func() {
		select {
		case ch <- c.s.Now():
		default:
		}
	})
	return ch
}

// AfterFunc implements vtime.Clock: f runs inside the wake event After
// would schedule, on the run loop or a pool worker while the scheduler
// runs, so it must not block. The heap has no removal, so stop turns
// the event into a no-op that still pops at the deadline. Stop runs
// every callback not yet stopped, as it releases every parked sleeper.
func (c desClock) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	var done atomic.Bool
	c.s.timer(d, func() {
		if done.CompareAndSwap(false, true) {
			f()
		}
	})
	return func() bool { return done.CompareAndSwap(false, true) }
}

// SleepCtx is Sleep with cancellation: it returns ctx.Err immediately
// when the context is done first. The abandoned wake event still fires
// (or is released at Stop) into its buffered channel, so nothing
// leaks.
func (s *Scheduler) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	done := make(chan struct{}, 1)
	s.timer(d, func() {
		select {
		case done <- struct{}{}:
		default:
		}
	})
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ vtime.Clock = desClock{}
