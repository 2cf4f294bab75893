package des

import (
	"context"
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

// timerHome spreads timer events across shards without any caller
// input: each timer's home is a mix of its sequence draw.
func (s *Scheduler) timerHome(seq uint64) uint64 {
	return splitmix64(seq ^ 0x7465722d686f6d65) // "ter-home"
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
	seq := c.s.extSeq.Add(1)
	release := func() { close(done) }
	c.s.schedule(d, c.s.timerHome(seq), seq, seq, nil, release)
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
	seq := c.s.extSeq.Add(1)
	release := func() {
		select {
		case ch <- c.s.Now():
		default:
		}
	}
	c.s.schedule(d, c.s.timerHome(seq), seq, seq, nil, release)
	return ch
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
	seq := s.extSeq.Add(1)
	release := func() {
		select {
		case done <- struct{}{}:
		default:
		}
	}
	s.schedule(d, s.timerHome(seq), seq, seq, nil, release)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ vtime.Clock = desClock{}
