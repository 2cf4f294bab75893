package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on changes speed under it: neighbours on
// a shared machine take cache, memory bandwidth and core time, and the
// same episode can take twice as long ten minutes later. Every timed
// phase is therefore bracketed by a probe — a fixed computation that
// does not touch the code under test — and reported in probe-normalised
// host time: the phase's wall time scaled by refProbe over the median
// probe time of its episode (throughput) or run (setupTime), that is,
// the time the phase would have taken on a host where the probe takes
// refProbe. A change to the simulator moves the phase and not the
// probe, so it still shows in full.

// refProbe is the nominal probe time the normalised figures refer to.
const refProbe = 10 * time.Millisecond

// The probe walks a seeded single-cycle permutation of 1<<20 indices
// (4 MiB, larger than the per-core caches, so every step is a memory
// access), hashing as it goes: memory latency and dependent arithmetic,
// the two things the simulator's pointer-heavy code spends its time on.
// It allocates nothing, so it neither triggers nor pays for a
// collection of the workload's heap. A workload that keeps several
// cores busy is probed as wide, one walker per core: a neighbour that
// slows either core slows the workload's barriers and hand-offs, and
// the probe alike.
const probeSteps = 1 << 16

var probeRing = func() []int32 {
	const n = 1 << 20
	ring := make([]int32, n)
	for i := range ring {
		ring[i] = int32(i)
	}
	// Sattolo's algorithm: a uniformly random permutation with one cycle.
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}()

var probeSink atomic.Uint64

// probe runs the fixed computation on width walkers at once, each from
// its own point of the ring, and returns the wall time until the last
// one finishes.
func probe(width int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < width; g++ {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			h := uint64(14695981039346656037)
			for k := 0; k < probeSteps; k++ {
				i = probeRing[i]
				for r := 0; r < 8; r++ {
					h = (h ^ uint64(i)) * 1099511628211
				}
			}
			probeSink.Add(h)
		}(int32(g * len(probeRing) / width))
	}
	wg.Wait()
	return time.Since(start)
}

// lap is one timed phase: its wall time and the mean of the probe
// times measured just before and just after it.
type lap struct {
	wall, probe time.Duration
}

// stopwatch times consecutive laps, probing the host between them
// with width walkers.
type stopwatch struct {
	width  int
	start  time.Time
	before time.Duration
}

func startStopwatch(width int) *stopwatch {
	s := &stopwatch{width: width, before: probe(width)}
	s.start = time.Now()
	return s
}

// lap ends the current lap and starts the next one.
func (s *stopwatch) lap() lap {
	wall := time.Since(s.start)
	after := probe(s.width)
	l := lap{wall: wall, probe: (s.before + after) / 2}
	s.before = after
	s.start = time.Now()
	return l
}
