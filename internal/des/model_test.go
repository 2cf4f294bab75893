package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// This file is the scheduler's model-based test. Generated event
// programs run on the sharded scheduler at {1,4,16} shards × {1,2,4}
// workers and on refExec, a trivially correct reference executor: one
// slice of pending events, from which each pass takes the instant's
// events and runs them by repeatedly popping the least by event.less.
// Per-home execution order, EventsExecuted and TraceHash must match.

// progChild is one event a program node schedules: after delay (which
// may be zero or negative), on home, running node.
type progChild struct {
	delay time.Duration
	home  uint64
	node  int
}

// progNode is one event of a program. A program is a static tree: what
// an event schedules depends only on its node, never on when or where
// it runs, so both executors run the same program. A panicking node
// schedules its children first, then panics.
type progNode struct {
	children []progChild
	panics   bool
}

type program struct {
	roots []progChild
	nodes []progNode
}

// progPanic is the value a panicking node raises.
type progPanic int

// genProgram draws one program: up to a few hundred events over a home
// pool that is narrow (many events per home, every shard shared),
// medium or wide (arbitrary 64-bit homes), with delays that are zero
// (same-instant cascades), negative (clamped to now), one of a few
// coarse instants (many events per pass, across homes) or arbitrary;
// children land on other homes as often as not, so cascades cross
// shards. Two programs in three carry one panicking event.
func genProgram(rng *rand.Rand) *program {
	var homes []uint64
	switch rng.Intn(3) {
	case 0:
		homes = make([]uint64, 1+rng.Intn(6))
	case 1:
		homes = make([]uint64, 7+rng.Intn(34))
	}
	for i := range homes {
		homes[i] = uint64(i)
	}
	home := func() uint64 {
		if homes == nil {
			return rng.Uint64()
		}
		return homes[rng.Intn(len(homes))]
	}
	delay := func() time.Duration {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -time.Duration(1 + rng.Intn(1000))
		case 2:
			return time.Duration(rng.Intn(4)) * time.Millisecond
		case 3:
			return 1
		default:
			return time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		}
	}
	p := &program{}
	const maxNodes, maxDepth = 300, 6
	depth := []int{}
	add := func(d int) int {
		p.nodes = append(p.nodes, progNode{})
		depth = append(depth, d)
		return len(p.nodes) - 1
	}
	for r := 1 + rng.Intn(30); r > 0; r-- {
		p.roots = append(p.roots, progChild{delay: delay(), home: home(), node: add(0)})
	}
	for i := 0; i < len(p.nodes) && len(p.nodes) < maxNodes; i++ {
		if depth[i] >= maxDepth {
			continue
		}
		for c := rng.Intn(4); c > 0 && len(p.nodes) < maxNodes; c-- {
			id := add(depth[i] + 1)
			p.nodes[i].children = append(p.nodes[i].children, progChild{delay: delay(), home: home(), node: id})
		}
	}
	if rng.Intn(3) > 0 {
		p.nodes[rng.Intn(len(p.nodes))].panics = true
	}
	return p
}

// progRun is what one executor observed: the node IDs each home ran,
// in order, the executed-event count and the trace hash.
type progRun struct {
	perHome  map[uint64][]int
	executed uint64
	trace    uint64
	panics   int
}

// runScheduler runs p on a real scheduler. A panic aborts Run after its
// pass (the panicking batch stops, the pass's other batches finish);
// the rest of the program then runs from a fresh Run.
func runScheduler(t *testing.T, p *program, seed int64, shards, workers int) progRun {
	t.Helper()
	s := NewScheduler(seed, shards)
	s.SetWorkers(workers)
	var mu sync.Mutex
	out := progRun{perHome: make(map[uint64][]int)}
	var run func(ctx *Ctx, node int)
	run = func(ctx *Ctx, node int) {
		mu.Lock()
		out.perHome[ctx.home] = append(out.perHome[ctx.home], node)
		mu.Unlock()
		n := &p.nodes[node]
		for _, c := range n.children {
			ctx.At(c.delay, c.home, func(ctx *Ctx) { run(ctx, c.node) })
		}
		if n.panics {
			panic(progPanic(node))
		}
	}
	for _, r := range p.roots {
		s.At(r.delay, r.home, func(ctx *Ctx) { run(ctx, r.node) })
	}
	for s.Pending() > 0 {
		if v := runRecovering(s); v != nil {
			if _, ok := v.(progPanic); !ok {
				t.Fatalf("Run panicked with %v, not the program's panic", v)
			}
			out.panics++
		}
	}
	out.executed, out.trace = s.EventsExecuted(), s.TraceHash()
	return out
}

// runRecovering runs s and returns the value it panicked with, if any.
func runRecovering(s *Scheduler) (v any) {
	defer func() { v = recover() }()
	s.Run()
	return nil
}

// refEvent is one pending event of the reference executor.
type refEvent struct {
	key  event
	node int
}

// refExec is the reference executor. Its keys follow the scheduler's
// documented derivation: a root's sequence and lineage are its
// scheduling order, a child's derive from its parent's key and child
// index, and the tie is the seeded hash of home and sequence. A pass
// holds every pending event at the earliest instant; events scheduled
// during a pass join a later one. The one place shards matter is a panic: the scheduler
// stops the panicking event's shard batch, so the reference skips the
// rest of the pass's events on that shard.
func refExec(p *program, seed int64, shards int) progRun {
	sseed := splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	key := func(at int64, home, seq, lin uint64) event {
		return event{at: at, tie: splitmix64(sseed ^ splitmix64(home)*0x9e3779b97f4a7c15 ^ seq), home: home, seq: seq, lin: lin}
	}
	out := progRun{perHome: make(map[uint64][]int), trace: fnvOffset}
	var pending []refEvent
	for i, r := range p.roots {
		seq := uint64(i + 1)
		pending = append(pending, refEvent{key(max(int64(r.delay), 0), r.home, seq, seq), r.node})
	}
	for len(pending) > 0 {
		now := pending[0].key.at
		for _, e := range pending {
			now = min(now, e.key.at)
		}
		var pass, rest []refEvent
		for _, e := range pending {
			if e.key.at == now {
				pass = append(pass, e)
			} else {
				rest = append(rest, e)
			}
		}
		pending = rest
		stopped, stoppedShard := false, uint64(0)
		for len(pass) > 0 {
			least := 0
			for i := range pass {
				if pass[i].key.less(&pass[least].key) {
					least = i
				}
			}
			e := pass[least]
			pass = append(pass[:least], pass[least+1:]...)
			for _, v := range []uint64{uint64(e.key.at), e.key.tie, e.key.home, e.key.seq} {
				out.trace = fnv1a(out.trace, v)
			}
			out.executed++
			if stopped && e.key.home%uint64(shards) == stoppedShard {
				continue
			}
			out.perHome[e.key.home] = append(out.perHome[e.key.home], e.node)
			n := &p.nodes[e.node]
			for i, c := range n.children {
				k := uint64(i + 1)
				seq := splitmix64((e.key.seq ^ splitmix64(e.key.home)) + k)
				lin := splitmix64(e.key.lin ^ splitmix64(k))
				pending = append(pending, refEvent{key(now+max(int64(c.delay), 0), c.home, seq, lin), c.node})
			}
			if n.panics {
				out.panics++
				stopped, stoppedShard = true, e.key.home%uint64(shards)
			}
		}
	}
	return out
}

// TestSchedulerMatchesReferenceExecutor is the model-based test: every
// generated program must run identically on the sharded scheduler and
// the reference executor at every shard and worker count.
func TestSchedulerMatchesReferenceExecutor(t *testing.T) {
	programs := 60
	if testing.Short() {
		programs = 15
	}
	var sawPanic, sawMultiPass bool
	for i := 0; i < programs; i++ {
		seed := int64(i + 1)
		p := genProgram(rand.New(rand.NewSource(seed * 7919)))
		for _, shards := range []int{1, 4, 16} {
			want := refExec(p, seed, shards)
			if want.executed == 0 {
				t.Fatalf("program %d: reference executed no events", i)
			}
			sawPanic = sawPanic || want.panics > 0
			sawMultiPass = sawMultiPass || want.executed > uint64(len(p.roots))
			for _, workers := range []int{1, 2, 4} {
				got := runScheduler(t, p, seed, shards, workers)
				where := fmt.Sprintf("program %d (%d events), shards=%d workers=%d", i, len(p.nodes), shards, workers)
				if got.executed != want.executed || got.trace != want.trace {
					t.Fatalf("%s: executed %d trace %#x, reference %d %#x", where, got.executed, got.trace, want.executed, want.trace)
				}
				if got.panics != want.panics {
					t.Fatalf("%s: %d panics surfaced, reference %d", where, got.panics, want.panics)
				}
				if !reflect.DeepEqual(got.perHome, want.perHome) {
					for home, order := range want.perHome {
						if !reflect.DeepEqual(got.perHome[home], order) {
							t.Fatalf("%s: home %#x ran %v, reference %v", where, home, got.perHome[home], order)
						}
					}
					t.Fatalf("%s: homes %d, reference %d", where, len(got.perHome), len(want.perHome))
				}
			}
		}
	}
	if !sawPanic || !sawMultiPass {
		t.Fatalf("generator never produced a panicking (%v) or cascading (%v) program", sawPanic, sawMultiPass)
	}
}
