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
	// seq numbers After registrations; equal-deadline waiters fire in
	// registration order instead of unstable heap order (see Less).
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
	deadline := m.now.Add(d)
	if d <= 0 {
		//phvet:ignore lockguard ch is freshly made with capacity 1 and gets exactly this one send; it cannot block.
		ch <- m.now
		return ch
	}
	m.seq++
	heap.Push(&m.waiters, &waiter{deadline: deadline, seq: m.seq, ch: ch})
	return ch
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
// has passed, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	for len(m.waiters) > 0 && !m.waiters[0].deadline.After(m.now) {
		w := heap.Pop(&m.waiters).(*waiter)
		//phvet:ignore lockguard every waiter channel has capacity 1 and receives exactly one send; it cannot block.
		w.ch <- m.now
	}
}

type waiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
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
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

var _ Clock = (*Manual)(nil)
