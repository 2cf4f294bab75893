package main

import (
	"sort"
	"time"
)

// kind names one span type: a benchmark call into a layer's public
// function, a layer callback the benchmark supplies, or one of the
// benchmark's own event continuations.
type kind uint16

const (
	kDESRun kind = iota
	kCont
	kNeighborsAt
	kSetModel
	kDialEvent
	kSendEvent
	kRecvEvent
	kCloseEvent
	kDiscoverGroups
	kRefreshGroups
	kSendMessage
	kAddInterest
	kRemoveInterest
	kPlace
	kScenarioBuild
	kRefreshAll
	kPriming
	kGossipRound
	kGossipRefresh
	kDTNRound
	kDTNSend
	kNeighborsCb
	kGroupsCb
	numKinds
)

var kindNames = [numKinds]string{
	kDESRun:         "des.run",
	kCont:           "bench.continuation",
	kNeighborsAt:    "radio.neighbors_at",
	kSetModel:       "radio.set_model",
	kDialEvent:      "netsim.dial_event",
	kSendEvent:      "netsim.send_event",
	kRecvEvent:      "netsim.recv_event",
	kCloseEvent:     "netsim.close_event",
	kDiscoverGroups: "core.discover_groups",
	kRefreshGroups:  "community.refresh_groups",
	kSendMessage:    "community.send_message",
	kAddInterest:    "profile.add_interest",
	kRemoveInterest: "profile.remove_interest",
	kPlace:          "world.place",
	kScenarioBuild:  "scenario.build",
	kRefreshAll:     "peerhood.refresh_all",
	kPriming:        "community.priming_round",
	kGossipRound:    "gossip.round",
	kGossipRefresh:  "gossip.refresh",
	kDTNRound:       "dtn.round",
	kDTNSend:        "dtn.send_ttl",
	kNeighborsCb:    "bench.neighbors_cb",
	kGroupsCb:       "bench.groups_cb",
}

// span is one recorded interval. Times are nanoseconds since the
// episode's trace epoch; parent indexes the enclosing span in the same
// buffer (-1 for a root); run is the episode that recorded it.
type span struct {
	start, end int64
	parent     int32
	kind       kind
	run        uint16
}

// spanBuf is one executor's span buffer: a device home on the DES
// (events on one home never run concurrently, so the buffer needs no
// lock) or the single driver goroutine of a goroutine-driven workload.
// A nil *spanBuf records nothing, which is how untraced episodes run.
type spanBuf struct {
	t0    time.Time
	run   uint16
	spans []span
	open  []int32
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (b *spanBuf) begin(k kind) int32 {
	if b == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	b.spans = append(b.spans, span{start: int64(time.Since(b.t0)), parent: parent, kind: k, run: b.run})
	i := int32(len(b.spans) - 1)
	b.open = append(b.open, i)
	return i
}

// end closes the span begin returned.
func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.t0))
	b.open = b.open[:len(b.open)-1]
}

// tracer owns one episode's buffers. It is nil when the episode runs
// untraced; buffers are created during set-up, on one goroutine, and
// read only after the timed phase has ended.
type tracer struct {
	t0   time.Time
	run  uint16
	bufs []*spanBuf
}

func newTracer(run int) *tracer {
	return &tracer{t0: time.Now(), run: uint16(run)}
}

// buf returns a fresh buffer (nil when t is nil).
func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t0: t.t0, run: t.run, spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// kindStats is the per-kind summary of an episode's spans: the sorted
// self times (a span's duration minus its direct children's) of every
// span of that kind, and their sum.
type kindStats struct {
	self []int64
	sum  int64
}

// ledger is an episode's spans reduced to per-kind self times. runSelf
// is the des.run span's duration minus the union of every root span
// (the benchmark's continuations, which the scheduler calls from its
// workers) inside it: the scheduler plus netsim's internal events.
type ledger struct {
	kinds   [numKinds]kindStats
	runSelf int64
}

// reduce computes the ledger. It runs after the timed phase, when no
// executor touches the buffers any more.
func (t *tracer) reduce() *ledger {
	l := &ledger{}
	var runs, roots [][2]int64
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			self := s.end - s.start - child[i]
			k := &l.kinds[s.kind]
			k.self = append(k.self, self)
			k.sum += self
			switch {
			case s.kind == kDESRun:
				runs = append(runs, [2]int64{s.start, s.end})
			case s.parent < 0 && s.kind == kCont:
				roots = append(roots, [2]int64{s.start, s.end})
			}
		}
	}
	for _, r := range runs {
		l.runSelf += (r[1] - r[0]) - covered(roots, r)
	}
	for i := range l.kinds {
		s := l.kinds[i].self
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	return l
}

// covered is how much of window w the union of intervals covers.
func covered(intervals [][2]int64, w [2]int64) int64 {
	var in [][2]int64
	for _, iv := range intervals {
		if s, e := max(iv[0], w[0]), min(iv[1], w[1]); s < e {
			in = append(in, [2]int64{s, e})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i][0] < in[j][0] })
	var total, curS, curE int64
	for i, iv := range in {
		if i > 0 && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		total += curE - curS
		curS, curE = iv[0], iv[1]
	}
	return total + curE - curS
}
