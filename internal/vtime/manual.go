package vtime

import (
	"container/heap"
	"sync"
	"time"
)

// Manual is a Clock whose time only moves when Advance is called. It
// exists for tests that need deterministic positions and timeouts
// without sleeping.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	// seq numbers After and AfterFunc registrations; equal-deadline
	// waiters fire in registration order instead of unstable heap order
	// (see Less).
	seq uint64
}

// NewManual returns a manual clock starting at the given time.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock; it blocks until Advance moves time past the
// deadline.
func (m *Manual) Sleep(d time.Duration) {
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		//phvet:ignore lockguard ch is freshly made with capacity 1 and gets exactly this one send; it cannot block.
		ch <- m.now
		return ch
	}
	m.push(d, &waiter{fire: func(now time.Time) { ch <- now }})
	return ch
}

// AfterFunc implements Clock: f waits in the same heap as After's
// timers, counts in Waiters, and runs in the Advance that passes its
// deadline, in deadline-then-registration order with them, after
// Advance has dropped the clock's lock (so f may use the clock). With
// d <= 0 it runs in the next Advance, Advance(0) included. stop takes
// the waiter out of the heap.
func (m *Manual) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	w := &waiter{fire: func(time.Time) { f() }}
	m.mu.Lock()
	m.push(max(d, 0), w)
	m.mu.Unlock()
	return func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		if w.index < 0 {
			return false
		}
		heap.Remove(&m.waiters, w.index)
		return true
	}
}

// push arms w for d from now. Callers hold m.mu.
func (m *Manual) push(d time.Duration, w *waiter) {
	m.seq++
	w.deadline, w.seq = m.now.Add(d), m.seq
	heap.Push(&m.waiters, w)
}

// Waiters reports how many timers are currently pending. Tests use it
// to know a goroutine has registered its After before Advancing past
// the deadline.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Advance moves the clock forward and fires every timer whose deadline
// has passed, in deadline order. The timers fire after the lock is
// dropped: an After channel has capacity 1 and gets exactly one send,
// and an AfterFunc callback may call back into the clock.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var due []*waiter
	for len(m.waiters) > 0 && !m.waiters[0].deadline.After(now) {
		due = append(due, heap.Pop(&m.waiters).(*waiter))
	}
	m.mu.Unlock()
	for _, w := range due {
		w.fire(now)
	}
}

// waiter is one pending After or AfterFunc; fire delivers it.
type waiter struct {
	deadline time.Time
	seq      uint64
	index    int // position in the heap; -1 once popped or removed
	fire     func(now time.Time)
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }

// Less orders waiters by deadline, then by registration sequence: two
// timers armed for the same instant must fire in the order they were
// armed, or an Advance past simultaneous deadlines wakes goroutines in
// whatever order the heap's internal swaps happen to leave — a replay
// hazard for anything observing wake order.
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

var _ Clock = (*Manual)(nil)
