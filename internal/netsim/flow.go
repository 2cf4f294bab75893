package netsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
)

// Flow is where one step of an operation made of many calls runs, so
// that the operation is written once for both engines, as a plane's
// handshake steps are written once for Round. On the goroutine engine
// a flow is a goroutine: its steps block, bounded by Context, and each
// step runs its continuation on that goroutine before it returns. On
// the discrete-event engine a flow is a cascade of events on one
// device's home (Event): its steps never block, so no goroutine waits
// on a call.
type Flow struct {
	net  *Network
	ctx  context.Context
	ev   *des.Ctx
	home uint64
}

// Context bounds a flow's blocking calls on the goroutine engine. On
// the DES, which does not consult the caller's context, it is
// context.Background.
func (f Flow) Context() context.Context { return f.ctx }

// Event is the event the flow runs in on the DES, nil on the goroutine
// engine.
func (f Flow) Event() *des.Ctx { return f.ev }

// In continues f inside ev, an event on f's home: a transport callback
// or one of the flow's timers.
func (f Flow) In(ev *des.Ctx) Flow {
	f.ev = ev
	return f
}

// Await runs op as one flow of device from's and returns what op hands
// to done. On the goroutine engine op runs on the caller, its blocking
// calls bounded by ctx. On the DES it is a cascade seeded on from's home
// that the caller awaits (des.Scheduler.Await); it ends in virtual
// time, so ctx is not consulted. Never call it from inside an event:
// the run lock is held there, and the await would deadlock.
func Await[T any](n *Network, ctx context.Context, from ids.DeviceID, op func(f Flow, done func(Flow, T, error))) (T, error) {
	c := new(Completion[T])
	if n.sched == nil {
		op(Flow{net: n, ctx: ctx}, c.set)
		return c.wait(n)
	}
	f := Flow{net: n, ctx: context.Background(), home: homeOf(from)}
	n.sched.At(0, f.home, func(ev *des.Ctx) { op(f.In(ev), c.set) })
	return c.wait(n)
}

// Fanout runs item for every index in [0, count), at most width at a
// time, and calls then once every item has called its done. Items write
// their results by index. On the goroutine engine min(width, count)
// lanes, goroutines claiming indices in order, run the items, and then
// runs on f's goroutine once every lane has ended. On the DES each lane
// is a cascade of f's events, and no goroutine starts.
func (f Flow) Fanout(count, width int, item func(f Flow, i int, done func(Flow)), then func(Flow)) {
	lanes := min(width, count)
	if f.ev == nil {
		idle := func(Flow) {}
		if lanes <= 1 {
			for i := 0; i < count; i++ {
				item(f, i, idle)
			}
			then(f)
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		lane := func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < count; i = int(next.Add(1)) - 1 {
				item(f, i, idle)
			}
		}
		wg.Add(lanes)
		for w := 0; w < lanes; w++ {
			go lane()
		}
		wg.Wait()
		then(f)
		return
	}
	if count == 0 {
		then(f)
		return
	}
	// The flow's events run on its home one at a time, so the lanes
	// share these counters without a lock.
	claimed, left := 0, count
	var lane func(f Flow)
	lane = func(f Flow) {
		if claimed == count {
			return
		}
		i := claimed
		claimed++
		item(f, i, func(f Flow) {
			if left--; left == 0 {
				then(f)
				return
			}
			lane(f)
		})
	}
	for w := 0; w < lanes; w++ {
		lane(f)
	}
}

// After runs fn after d of real-scaled time unless stop runs first. On
// the DES it is a child event of f's on f's home, which a stop leaves to
// fire as a no-op; on the goroutine engine a callback on the
// environment's clock, which runs fn on a goroutine of the clock's.
func (f Flow) After(d time.Duration, fn func(Flow)) (stop func()) {
	if f.ev == nil {
		cancel := f.net.env.Clock().AfterFunc(d, func() { fn(f) })
		return func() { cancel() }
	}
	stopped := false
	f.ev.At(d, f.home, func(ev *des.Ctx) {
		if !stopped {
			fn(f.In(ev))
		}
	})
	return func() { stopped = true }
}

// Abort tears c down from f: inside f's event on the DES, so a receive
// parked on it fails as a child event, else with Conn.Abort.
func (f Flow) Abort(c *Conn) {
	if f.ev == nil {
		c.Abort()
		return
	}
	c.abortEvent(f.ev)
}

// Completion is a result set once: the first Set wins. A waiter either
// registers a continuation or blocks (Then), on a channel on the
// goroutine engine; a blocking caller outside any event waits for it
// through des.Scheduler.Await on the DES (Await). The zero value is
// unset.
type Completion[T any] struct {
	mu      sync.Mutex
	settled bool
	val     T
	err     error
	done    chan struct{} // made for the first blocked waiter
	thens   []func(Flow, T, error)
}

// Set records the result unless one is recorded already, runs the
// registered continuations in f, and reports whether this call won.
func (c *Completion[T]) Set(f Flow, v T, err error) bool {
	c.mu.Lock()
	if c.settled {
		c.mu.Unlock()
		return false
	}
	c.settled, c.val, c.err = true, v, err
	thens := c.thens
	c.thens = nil
	if c.done != nil {
		close(c.done)
	}
	c.mu.Unlock()
	for _, fn := range thens {
		fn(f, v, err)
	}
	return true
}

// set is Set shaped as a continuation.
func (c *Completion[T]) set(f Flow, v T, err error) { c.Set(f, v, err) }

// Then hands the result to fn in f: at once when it is set; otherwise,
// on the DES, in f continued inside the event that sets it, and on the
// goroutine engine after blocking until it is set.
func (c *Completion[T]) Then(f Flow, fn func(Flow, T, error)) {
	c.mu.Lock()
	switch {
	case c.settled:
		c.mu.Unlock()
	case f.ev != nil:
		c.thens = append(c.thens, func(g Flow, v T, err error) { fn(f.In(g.ev), v, err) })
		c.mu.Unlock()
		return
	default:
		done := c.waitLocked()
		c.mu.Unlock()
		<-done
	}
	fn(f, c.val, c.err)
}

// wait blocks a caller outside any event until the result is set. On
// the DES the caller runs the scheduler meanwhile and panics if the
// queue drains first: a flow that can no longer finish is a bug.
func (c *Completion[T]) wait(n *Network) (T, error) {
	c.mu.Lock()
	if c.settled {
		c.mu.Unlock()
		return c.val, c.err
	}
	done := c.waitLocked()
	c.mu.Unlock()
	if n.sched == nil {
		<-done
	} else if err := n.sched.Await(done); err != nil {
		panic(fmt.Sprintf("netsim: awaited flow: %v", err))
	}
	return c.val, c.err
}

// waitLocked returns the channel Set closes, making it for the first
// blocked waiter. Callers hold c.mu.
func (c *Completion[T]) waitLocked() chan struct{} {
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}
