package community

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/vtime"
)

// ResilienceOptions tunes the client's degradation machinery: per-peer
// circuit breakers that stop wasting fan-out time on peers that keep
// failing, and hedged requests that race a second session against a
// stalled one. The zero value enables breakers with defaults and leaves
// hedging off; a client that never calls SetResilience behaves exactly
// as before.
type ResilienceOptions struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// peer's breaker (default 3).
	FailureThreshold int
	// OpenFor is how long, in modeled time, an open breaker rejects a
	// peer before probing it again (default 60s). On the goroutine
	// engine the real wait is floored at breakerOpenFloor so
	// sub-millisecond scaled windows don't thrash.
	OpenFor time.Duration
	// Hedge enables hedged requests for idempotent reads.
	Hedge bool
	// HedgeMinSamples is how many latency samples must exist before any
	// hedge fires (default 16).
	HedgeMinSamples int
}

func (o ResilienceOptions) withDefaults() ResilienceOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 60 * time.Second
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
	return o
}

// The hedge delay is hedgeFactor times the observed p99 latency —
// conservative, so hedges fire on genuine stragglers, not ordinary
// jitter — clamped to [hedgeFloor, hedgeCap] of modeled time.
const (
	hedgeFactor = 4
	hedgeFloor  = time.Second
	hedgeCap    = 30 * time.Second
)

// breakerOpenFloor is the minimum real-time open window on the
// goroutine engine. Below this, host scheduling jitter is larger than
// the window itself and the breaker would flap; mirrors peerhood's
// guard-timeout floor. The DES clock has no host jitter and takes the
// modeled window as is.
const breakerOpenFloor = 500 * time.Millisecond

// hedgeSampleWindow is how many recent call latencies feed the p99.
const hedgeSampleWindow = 64

// resilience is the client's degradation state: one breaker per peer
// and a shared latency window for hedge-delay estimation. All times are
// real-clock durations — the environment clock is the real clock, and
// latencies already include the scenario's scale.
type resilience struct {
	opts  ResilienceOptions
	clock vtime.Clock
	scale vtime.Scale
	des   bool

	mu       sync.Mutex
	breakers map[ids.DeviceID]*peerhood.Breaker
	samples  [hedgeSampleWindow]time.Duration
	next     int
	count    int
}

// SetResilience enables the client's circuit breakers (and optionally
// hedging). Call it before issuing traffic; calling it again replaces
// the options and resets all breaker state.
func (c *Client) SetResilience(opts ResilienceOptions) {
	net := c.lib.Daemon().Network()
	env := net.Environment()
	r := &resilience{
		opts:     opts.withDefaults(),
		clock:    env.Clock(),
		scale:    env.Scale(),
		des:      net.Scheduler() != nil,
		breakers: make(map[ids.DeviceID]*peerhood.Breaker),
	}
	c.mu.Lock()
	c.resil = r
	c.mu.Unlock()
}

// resilience returns the client's degradation state, nil when disabled.
func (c *Client) resilience() *resilience {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resil
}

// breakerFor returns the peer's breaker, creating it on first use; nil
// when resilience is disabled.
func (c *Client) breakerFor(dev ids.DeviceID) *peerhood.Breaker {
	r := c.resilience()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[dev]
	if !ok {
		openFor := r.scale.ToReal(r.opts.OpenFor)
		if openFor < breakerOpenFloor && !r.des {
			openFor = breakerOpenFloor
		}
		b = peerhood.NewBreaker(r.clock, peerhood.BreakerOptions{
			FailureThreshold: r.opts.FailureThreshold,
			OpenFor:          openFor,
		})
		r.breakers[dev] = b
	}
	return b
}

// recordOutcome feeds one call outcome into the peer's breaker. A
// cancellation of our own context says nothing about the peer's health
// and is not recorded.
func (c *Client) recordOutcome(br *peerhood.Breaker, err error) {
	if br == nil {
		return
	}
	if err == nil {
		br.Record(true)
		return
	}
	if errors.Is(err, context.Canceled) {
		return
	}
	br.Record(false)
}

// observe feeds one successful call's real latency into the window.
func (r *resilience) observe(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[r.next] = d
	r.next = (r.next + 1) % hedgeSampleWindow
	if r.count < hedgeSampleWindow {
		r.count++
	}
}

// hedgeDelay derives the current hedge trigger from the p99 of the
// latency window. ok=false means not enough samples yet.
func (r *resilience) hedgeDelay() (time.Duration, bool) {
	r.mu.Lock()
	n := r.count
	tmp := make([]time.Duration, n)
	copy(tmp, r.samples[:n])
	r.mu.Unlock()
	if n < r.opts.HedgeMinSamples {
		return 0, false
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := (n*99+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	d := tmp[idx] * hedgeFactor
	if floor := r.scale.ToReal(hedgeFloor); d < floor {
		d = floor
	}
	if cap := r.scale.ToReal(hedgeCap); d > cap {
		d = cap
	}
	return d, true
}

// hedgeEligible ops are safe to send twice: idempotent reads, plus the
// free ping probe. Mutations (messages, comments) must reach the server
// exactly once and are never hedged.
func hedgeEligible(op string) bool {
	return op == OpPing || singleflightable(op)
}

// exchange runs one request/response against a peer, hedging eligible
// reads: once the primary has been silent for a p99-derived delay, a
// timer dials a second session and races it against the primary, and
// the first reply wins. A fresh session matters — the fault plane draws
// stall fates per session, so a re-dial escapes a stalled one.
func (c *Client) exchange(f netsim.Flow, dev ids.DeviceID, rc *peerhood.RobustConn, payload []byte, op string, then func(netsim.Flow, []byte, error)) {
	r := c.resilience()
	if r == nil || !r.opts.Hedge || !hedgeEligible(op) {
		c.leg(f, rc, payload, r, then)
		return
	}
	delay, ok := r.hedgeDelay()
	if !ok {
		c.leg(f, rc, payload, r, then)
		return
	}
	// The legs may outlive the caller's pooled buffer.
	h := &hedge{c: c, dev: dev, primary: rc, payload: append([]byte(nil), payload...), r: r, legs: 1}
	h.mu.Lock() // the timer's launch waits until its stop is stored
	h.stop = f.After(delay, h.launch)
	h.mu.Unlock()
	c.leg(f, rc, h.payload, r, func(f netsim.Flow, raw []byte, err error) { h.settle(f, nil, raw, err) })
	h.race.Then(f, then)
}

// leg is one exchange on a session, feeding a successful exchange's
// latency into the hedge window.
func (c *Client) leg(f netsim.Flow, rc *peerhood.RobustConn, payload []byte, r *resilience, then func(netsim.Flow, []byte, error)) {
	if r == nil {
		rc.Exchange(f, payload, then)
		return
	}
	start := r.clock.Now()
	rc.Exchange(f, payload, func(f netsim.Flow, raw []byte, err error) {
		if err == nil {
			r.observe(r.clock.Now().Sub(start))
		}
		then(f, raw, err)
	})
}

// hedge is one hedged exchange. The first reply wins the race and the
// losing session is aborted, which also fails a primary stalled in its
// receive; with every leg failed, the first error ends it.
type hedge struct {
	c       *Client
	dev     ids.DeviceID
	primary *peerhood.RobustConn
	payload []byte
	r       *resilience
	race    netsim.Completion[[]byte]

	mu       sync.Mutex // guards the rest: the timer may run beside the primary
	stop     func()     // stops the hedge timer
	legs     int        // legs in flight
	decided  bool
	firstErr error
	spare    *peerhood.RobustConn
}

// launch is the hedge timer: unless the race is decided, it dials the
// spare session and runs the spare leg.
func (h *hedge) launch(f netsim.Flow) {
	h.mu.Lock()
	if h.decided {
		h.mu.Unlock()
		return
	}
	h.legs++
	h.mu.Unlock()
	h.c.counters.hedgesLaunched.Add(1)
	h.c.lib.Daemon().DialRobust(f, h.dev, ServiceName, peerhood.DefaultRobustOptions(), func(f netsim.Flow, spare *peerhood.RobustConn, err error) {
		if err != nil {
			h.settle(f, nil, nil, err)
			return
		}
		h.mu.Lock()
		h.spare = spare
		decided := h.decided
		h.mu.Unlock()
		if decided {
			spare.Abort(f) // the primary won while we dialed: the leg fails at once
		}
		h.c.leg(f, spare, h.payload, h.r, func(f netsim.Flow, raw []byte, err error) { h.settle(f, spare, raw, err) })
	})
}

// settle takes one leg's outcome: spare is nil for the primary (and
// for a spare whose dial failed).
func (h *hedge) settle(f netsim.Flow, spare *peerhood.RobustConn, raw []byte, err error) {
	h.mu.Lock()
	h.legs--
	if err != nil && h.firstErr == nil {
		h.firstErr = err
	}
	wins := !h.decided && (err == nil || h.legs == 0)
	h.decided = h.decided || wins
	other, stop, firstErr := h.spare, h.stop, h.firstErr
	h.mu.Unlock()
	switch {
	case !wins || err != nil:
		if spare != nil {
			spare.Abort(f)
		}
		if wins {
			stop()
			h.race.Set(f, nil, firstErr)
		}
	case spare != nil:
		// The spare won: adopt its healthy session and retire the one
		// that stalled.
		h.c.counters.hedgeWins.Add(1)
		h.c.adoptConn(f, h.dev, h.primary, spare)
		h.race.Set(f, raw, nil)
	default:
		stop()
		if other != nil {
			other.Abort(f)
		}
		h.race.Set(f, raw, nil)
	}
}

// adoptConn swaps the cached session for a peer: won replaces old if
// old is still cached, or fills the slot if a concurrent dropConn
// emptied it; otherwise won is dropped. old is aborted either way.
func (c *Client) adoptConn(f netsim.Flow, dev ids.DeviceID, old, won *peerhood.RobustConn) {
	c.mu.Lock()
	cur, ok := c.conns[dev]
	adopt := !c.closed && (!ok || cur == old)
	if adopt {
		c.conns[dev] = won
	}
	c.mu.Unlock()
	old.Abort(f)
	if !adopt {
		won.Abort(f)
	}
}
