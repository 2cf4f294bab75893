package vtime_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/vtime"
)

// afterFuncClock is one Clock under the AfterFunc contract, with the
// way to move it: advance moves the clock by d and runs whatever fell
// due (the real clock sleeps, a Manual clock advances, a scheduler runs
// up to the new instant).
type afterFuncClock struct {
	clock   vtime.Clock
	advance func(d time.Duration)
}

func afterFuncClocks() map[string]afterFuncClock {
	m := vtime.NewManual(time.Unix(0, 0))
	s := des.NewScheduler(1, 4)
	return map[string]afterFuncClock{
		"real":   {vtime.Real(), time.Sleep},
		"manual": {m, m.Advance},
		"des":    {s.Clock(), func(d time.Duration) { s.RunUntil(time.Duration(s.NowNS()) + d) }},
	}
}

// eventually polls cond for up to a second of real time: the real
// clock runs f on a goroutine of its own, which may not have run yet
// when advance returns; the other clocks run it inside advance.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestAfterFuncContract holds the real, manual and discrete-event
// clocks to one contract: f runs once, no earlier than d after it was
// armed; stop reports true before the fire, and f then never runs, and
// false after it; and with d <= 0, f is due at once.
func TestAfterFuncContract(t *testing.T) {
	const d = 20 * time.Millisecond
	for name, c := range afterFuncClocks() {
		t.Run(name, func(t *testing.T) {
			var runs atomic.Int32
			var firedAt atomic.Int64
			start := c.clock.Now()
			stop := c.clock.AfterFunc(d, func() {
				firedAt.Store(int64(c.clock.Now().Sub(start)))
				runs.Add(1)
			})
			c.advance(d)
			if !eventually(func() bool { return runs.Load() == 1 }) {
				t.Fatalf("f ran %d times once d had passed, want 1", runs.Load())
			}
			if got := time.Duration(firedAt.Load()); got < d {
				t.Errorf("f ran %v after it was armed, want at least %v", got, d)
			}
			if stop() {
				t.Error("stop reported true after f had run")
			}
			c.advance(d)
			if runs.Load() != 1 {
				t.Errorf("f ran %d times, want once", runs.Load())
			}

			var stopped atomic.Bool
			stop = c.clock.AfterFunc(d, func() { stopped.Store(true) })
			if !stop() {
				t.Error("stop reported false before the fire")
			}
			if stop() {
				t.Error("a second stop reported true")
			}
			c.advance(2 * d)
			if stopped.Load() {
				t.Error("a stopped f ran")
			}

			var due atomic.Bool
			c.clock.AfterFunc(0, func() { due.Store(true) })
			c.advance(0)
			if !eventually(due.Load) {
				t.Error("f armed with d = 0 never ran")
			}
		})
	}
}

// TestAfterFuncManualOrderAndReentry: on a Manual clock AfterFunc
// waiters count in Waiters, stop takes one out, and Advance fires them
// in deadline-then-registration order with After's channels, after it
// drops the clock's lock, so f may use the clock.
func TestAfterFuncManualOrderAndReentry(t *testing.T) {
	m := vtime.NewManual(time.Unix(0, 0))
	var order []string
	m.AfterFunc(2*time.Second, func() {
		order = append(order, "f2a")
	})
	ch := m.After(2 * time.Second)
	m.AfterFunc(2*time.Second, func() {
		select {
		case <-ch:
			order = append(order, "ch2", "f2b")
		default:
			order = append(order, "f2b before ch2")
		}
	})
	m.AfterFunc(time.Second, func() {
		// Re-entering the clock from f must not deadlock.
		order = append(order, "f1")
		m.AfterFunc(500*time.Millisecond, func() { order = append(order, "f1.5") })
		if got := m.Now(); !got.Equal(time.Unix(3, 0)) {
			order = append(order, "f1 read "+got.String())
		}
	})
	stop := m.AfterFunc(time.Second, func() { order = append(order, "stopped f ran") })
	if got := m.Waiters(); got != 5 {
		t.Fatalf("Waiters = %d, want 5", got)
	}
	if !stop() {
		t.Fatal("stop reported false before the fire")
	}
	if got := m.Waiters(); got != 4 {
		t.Fatalf("Waiters after stop = %d, want 4", got)
	}
	m.Advance(3 * time.Second)
	want := []string{"f1", "f2a", "ch2", "f2b"}
	if len(order) != len(want) {
		t.Fatalf("fired %q, want %q", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %q, want %q", order, want)
		}
	}
	// f1 re-armed at 3 s + 0.5 s, on the clock Advance had moved.
	if got := m.Waiters(); got != 1 {
		t.Fatalf("Waiters after the fire = %d, want f1's re-arm", got)
	}
	m.Advance(500 * time.Millisecond)
	if order[len(order)-1] != "f1.5" {
		t.Fatalf("the callback f armed never ran: %q", order)
	}
}
