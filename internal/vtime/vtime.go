// Package vtime provides the time abstraction used throughout the
// simulation: a Clock interface, a real clock, and a latency Scale that
// converts between "modeled" durations (the seconds the paper reports)
// and the real durations the simulator actually sleeps.
//
// The reproduction runs every protocol under real concurrency but with
// all network latencies shrunk by a constant factor, so a benchmark that
// models a 10-second Bluetooth inquiry completes in 10 ms of wall time.
// Measurements are taken in wall time and divided by the scale again, so
// results are reported on the paper's scale.
package vtime

import (
	"sync"
	"time"
)

// Clock abstracts time so tests can substitute a controllable source.
//
// A timeout that usually does not fire belongs on AfterFunc, not on
// After. The module is built under go 1.22 timer rules, where a
// time.After timer nobody receives from stays in the runtime's timer
// heap until it fires, so a per-operation After leaves one live timer
// per operation for the whole timeout; a goroutine parked on it costs
// a goroutine as well. AfterFunc's stop removes the timer at once.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after d.
	After(d time.Duration) <-chan time.Time
	// AfterFunc runs f once, after d, never on the caller's stack: the
	// real clock runs it on a goroutine of its own, a Manual clock in
	// the Advance that passes the deadline, the discrete-event clock
	// inside the scheduler, where f must not block. With d <= 0, f is
	// due at once. stop cancels the call and reports whether it did;
	// once the timer has fired it reports false.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Scale converts modeled durations to real durations. A Scale of 0.001
// runs one modeled second in one real millisecond. The zero value is not
// useful; use NewScale or DefaultScale.
type Scale struct {
	factor float64
}

// NewScale returns a Scale with the given real/modeled factor. Factors
// outside (0, 1e6] are clamped to that range.
func NewScale(factor float64) Scale {
	if factor <= 0 {
		factor = 1
	}
	if factor > 1e6 {
		factor = 1e6
	}
	return Scale{factor: factor}
}

// DefaultScale runs one modeled second in one real millisecond.
func DefaultScale() Scale { return NewScale(1e-3) }

// Identity leaves durations unchanged (modeled time == real time).
func Identity() Scale { return NewScale(1) }

// Factor reports the real/modeled conversion factor.
func (s Scale) Factor() float64 {
	if s.factor == 0 {
		return 1
	}
	return s.factor
}

// ToReal converts a modeled duration to the real duration to sleep.
func (s Scale) ToReal(modeled time.Duration) time.Duration {
	return time.Duration(float64(modeled) * s.Factor())
}

// ToModeled converts a measured real duration back to the modeled scale.
func (s Scale) ToModeled(real time.Duration) time.Duration {
	return time.Duration(float64(real) / s.Factor())
}

// Stopwatch measures elapsed wall time on a Clock and reports it on a
// modeled scale. The zero value uses the real clock and identity scale.
type Stopwatch struct {
	mu    sync.Mutex
	clock Clock
	scale Scale
	start time.Time
}

// NewStopwatch returns a started stopwatch.
func NewStopwatch(clock Clock, scale Scale) *Stopwatch {
	if clock == nil {
		clock = Real()
	}
	sw := &Stopwatch{clock: clock, scale: scale}
	sw.Restart()
	return sw
}

// Restart resets the start time to now.
func (w *Stopwatch) Restart() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.clock == nil {
		w.clock = Real()
	}
	w.start = w.clock.Now()
}

// Elapsed returns the modeled duration since the last restart.
func (w *Stopwatch) Elapsed() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.clock == nil {
		w.clock = Real()
	}
	if w.start.IsZero() {
		w.start = w.clock.Now()
	}
	return w.scale.ToModeled(w.clock.Now().Sub(w.start))
}
