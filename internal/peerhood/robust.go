package peerhood

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// RobustConn implements PeerHood's seamless connectivity (Table 3):
// when it senses the established connection breaking it finds the best
// possible alternative technology and re-dials, so the application
// keeps talking to the same service.
//
// Semantics: each failover opens a fresh connection to the service, so
// the server observes a new session; a message whose delivery raced the
// link loss may be retransmitted. Request/response protocols (like
// PeerHood Community's) tolerate both.
//
// A session has one retry policy, which do walks with blocking calls on
// the goroutine engine and doEvent walks as events on the DES:
//   - the first dial is eager and fails fast (DialRobust);
//   - one exchange at a time per session (exMu, enter);
//   - every exchange runs under a per-call deadline (RobustOptions.
//     CallTimeout, budget) and retries link losses, including re-dial
//     failures over the daemon's plugin order (retryable);
//   - retries wait a capped exponential backoff whose jitter comes from
//     a private rand.Rand seeded from the (local, remote, service)
//     triple, so retry schedules are deterministic per connection and
//     independent across connections (backoffDelay);
//   - a failed exchange poisons the session (poison).
type RobustConn struct {
	daemon  *Daemon
	dev     ids.DeviceID
	service ids.ServiceName
	opts    RobustOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	// exMu serializes exchanges on the goroutine engine, and turn, the
	// last exchange's turn (enter), on the DES: a request/response pair
	// owns the session until its reply (or failure) lands, so
	// concurrent exchanges can never read each other's responses.
	exMu sync.Mutex
	turn *netsim.Completion[struct{}]

	mu       sync.Mutex
	conn     *netsim.Conn
	closed   bool
	failures int
}

// ErrCallTimeout is returned when an operation exhausts its per-call
// deadline (RobustOptions.CallTimeout), including time spent backing
// off and re-dialing.
var ErrCallTimeout = errors.New("peerhood: call deadline exceeded")

// RobustOptions tunes RobustConn's retry behavior. Durations are in
// modeled time.
type RobustOptions struct {
	// MaxAttempts is the total number of tries per operation (first
	// attempt included).
	MaxAttempts int
	// BackoffBase is the nominal delay before the first retry; each
	// further retry doubles it.
	BackoffBase time.Duration
	// BackoffCap bounds the nominal delay.
	BackoffCap time.Duration
	// CallTimeout bounds one exchange including all retries and
	// backoff waits. Zero disables the deadline.
	CallTimeout time.Duration
}

// DefaultRobustOptions returns the options ConnectRobust uses.
func DefaultRobustOptions() RobustOptions {
	return RobustOptions{
		MaxAttempts: 4,
		BackoffBase: 250 * time.Millisecond,
		BackoffCap:  4 * time.Second,
		CallTimeout: 30 * time.Second,
	}
}

func (o RobustOptions) withDefaults() RobustOptions {
	def := DefaultRobustOptions()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = def.MaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = def.BackoffBase
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = def.BackoffCap
	}
	if o.CallTimeout < 0 {
		o.CallTimeout = 0
	}
	return o
}

// ConnectRobust opens a seamless connection to a service on a device
// with default retry options.
func (d *Daemon) ConnectRobust(ctx context.Context, dev ids.DeviceID, service ids.ServiceName) (*RobustConn, error) {
	return d.ConnectRobustWith(ctx, dev, service, DefaultRobustOptions())
}

// ConnectRobustWith opens a seamless connection with explicit retry
// options: DialRobust for a blocking caller (netsim.Await).
func (d *Daemon) ConnectRobustWith(ctx context.Context, dev ids.DeviceID, service ids.ServiceName, opts RobustOptions) (*RobustConn, error) {
	return netsim.Await(d.cfg.Network, ctx, d.cfg.Device, func(f netsim.Flow, done func(netsim.Flow, *RobustConn, error)) {
		d.DialRobust(f, dev, service, opts, done)
	})
}

// DialRobust opens a seamless connection in flow f and hands it to
// then. The initial dial is eager: it fails fast rather than retrying,
// so callers learn immediately when a peer is unreachable.
func (d *Daemon) DialRobust(f netsim.Flow, dev ids.DeviceID, service ids.ServiceName, opts RobustOptions, then func(netsim.Flow, *RobustConn, error)) {
	d.connectIn(f, dev, service, func(f netsim.Flow, conn *netsim.Conn, err error) {
		if err != nil {
			then(f, nil, err)
			return
		}
		then(f, &RobustConn{
			daemon:  d,
			dev:     dev,
			service: service,
			opts:    opts.withDefaults(),
			rng:     rand.New(rand.NewSource(robustSeed(d.cfg.Device, dev, service))),
			conn:    conn,
		}, nil)
	})
}

// robustSeed derives a per-connection jitter seed from the endpoint
// identity, so retry schedules replay under the same topology.
func robustSeed(local, remote ids.DeviceID, service ids.ServiceName) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(local))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(remote))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(service))
	return int64(h.Sum64())
}

// Remote returns the peer device.
func (r *RobustConn) Remote() ids.DeviceID { return r.dev }

// Technology returns the technology currently carrying the connection.
func (r *RobustConn) Technology() radio.Technology {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return radio.TechNone
	}
	return r.conn.Technology()
}

// Failovers reports how many times the connection has switched
// technologies or re-dialed.
func (r *RobustConn) Failovers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failures
}

// current is currentIn for do's blocking caller.
func (r *RobustConn) current(ctx context.Context) (*netsim.Conn, error) {
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn != nil && conn.Alive() {
		return conn, nil // the common case, without a flow
	}
	return netsim.Await(r.daemon.cfg.Network, ctx, r.daemon.cfg.Device, r.currentIn)
}

// currentIn hands then the live conn, re-dialing (Daemon.connectIn) if
// the previous one died.
func (r *RobustConn) currentIn(f netsim.Flow, then func(netsim.Flow, *netsim.Conn, error)) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		then(f, nil, netsim.ErrConnClosed)
		return
	}
	if r.conn != nil && r.conn.Alive() {
		conn := r.conn
		r.mu.Unlock()
		then(f, conn, nil)
		return
	}
	// Dead session: drop our hold before replacing it, so the pair can
	// recycle. We are its sole releaser — Close and poison both clear
	// r.conn under the lock before releasing.
	dead := r.conn
	r.conn = nil
	r.mu.Unlock()
	if dead != nil {
		f.Abort(dead)
	}
	r.daemon.connectIn(f, r.dev, r.service, func(f netsim.Flow, conn *netsim.Conn, err error) {
		if err != nil {
			then(f, nil, fmt.Errorf("peerhood: seamless reconnect to %s: %w", r.dev, err))
			return
		}
		r.mu.Lock()
		switch {
		case r.closed:
			r.mu.Unlock()
			f.Abort(conn)
			then(f, nil, netsim.ErrConnClosed)
		case r.conn != nil:
			// An exchange the deadline ended mid-dial left its re-dial
			// behind, and the next one has re-dialed since: keep the
			// session's conn and drop this one.
			cur := r.conn
			r.mu.Unlock()
			f.Abort(conn)
			then(f, cur, nil)
		default:
			r.conn = conn
			r.failures++
			r.mu.Unlock()
			then(f, conn, nil)
		}
	})
}

// backoffDelay returns the jittered wait before retry number `retry`
// (0-based): nominal = min(base<<retry, cap), drawn uniformly from
// [nominal/2, nominal] (equal jitter keeps a floor so retries never
// stampede, while desynchronizing concurrent connections).
func (r *RobustConn) backoffDelay(retry int) time.Duration {
	d := r.opts.BackoffBase
	for i := 0; i < retry && d < r.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > r.opts.BackoffCap {
		d = r.opts.BackoffCap
	}
	half := d / 2
	r.rngMu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(half) + 1))
	r.rngMu.Unlock()
	return half + jitter
}

// budget is the real-scaled per-call deadline, zero when disabled. On
// the goroutine engine it is floored against host jitter (realTimeout);
// the DES clock has none, so there the modeled deadline is scaled as
// is: a floor would stretch a 30 s deadline at scale 1e-3 to 2 000
// modeled seconds.
func (r *RobustConn) budget() time.Duration {
	net := r.daemon.cfg.Network
	switch {
	case r.opts.CallTimeout <= 0:
		return 0
	case net.Scheduler() != nil:
		return net.Environment().Scale().ToReal(r.opts.CallTimeout)
	}
	return realTimeout(net.Environment(), r.opts.CallTimeout)
}

// retryable decides an attempt that failed with err: a link loss is
// tried again after a backoff while attempts remain, and so is a failed
// re-dial, since the peer may come back; a closed session and every
// other error end the exchange.
func retryable(err error, redial bool) bool {
	if redial {
		return !errors.Is(err, netsim.ErrConnClosed)
	}
	return errors.Is(err, netsim.ErrLinkLost)
}

// timeoutErr is the error of an exchange the deadline stopped, naming
// the last error it had met, if any.
func (r *RobustConn) timeoutErr(last error) error {
	if last != nil && !errors.Is(last, context.Canceled) && !errors.Is(last, ErrCallTimeout) {
		return fmt.Errorf("%w (budget %v, last error: %v)", ErrCallTimeout, r.opts.CallTimeout, last)
	}
	return fmt.Errorf("%w (budget %v)", ErrCallTimeout, r.opts.CallTimeout)
}

// deadlineContext derives the per-exchange context on the goroutine
// engine. The deadline is a callback on the environment's clock (so
// manual clocks drive it in tests) that cancels with ErrCallTimeout as
// the cause; the release function stops it, so an exchange that ends
// in time leaves no timer behind.
func (r *RobustConn) deadlineContext(ctx context.Context) (context.Context, func()) {
	budget := r.budget()
	if budget <= 0 {
		return ctx, func() {}
	}
	env := r.daemon.cfg.Network.Environment()
	octx, cancel := context.WithCancelCause(ctx)
	stop := env.Clock().AfterFunc(budget, func() { cancel(ErrCallTimeout) })
	return octx, func() {
		stop()
		cancel(context.Canceled)
	}
}

// resolveErr maps an exchange failure to what the caller should see:
// when the per-call deadline is what stopped us, report ErrCallTimeout
// instead of the incidental context or link error.
func (r *RobustConn) resolveErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); errors.Is(cause, ErrCallTimeout) {
		return r.timeoutErr(err)
	}
	return err
}

// waitBackoff sleeps the jittered delay for the given retry on the
// environment clock, aborting early if the deadline fires.
func (r *RobustConn) waitBackoff(ctx context.Context, retry int) error {
	env := r.daemon.cfg.Network.Environment()
	d := r.backoffDelay(retry)
	select {
	case <-env.Clock().After(env.Scale().ToReal(d)):
		return nil
	case <-ctx.Done():
		return r.resolveErr(ctx, context.Cause(ctx))
	}
}

// do walks the session's policy for one operation with blocking calls
// (goroutine engine).
func (r *RobustConn) do(ctx context.Context, op func(ctx context.Context, conn *netsim.Conn) ([]byte, error)) ([]byte, error) {
	octx, stop := r.deadlineContext(ctx)
	defer stop()
	var lastErr error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := r.waitBackoff(octx, attempt-1); err != nil {
				return nil, err
			}
		}
		conn, err := r.current(octx)
		if err != nil {
			if !retryable(err, true) || octx.Err() != nil {
				return nil, r.resolveErr(octx, err)
			}
			lastErr = err
			continue
		}
		out, err := op(octx, conn)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !retryable(err, false) {
			return nil, r.resolveErr(octx, err)
		}
	}
	return nil, r.resolveErr(octx, lastErr)
}

// walk is one exchange walked by doEvent: the attempt in progress, and
// whether the exchange has ended (the deadline may end it while an
// attempt or a backoff is still pending, which then ends as a no-op).
type walk struct {
	r        *RobustConn
	req      []byte
	then     func(netsim.Flow, []byte, error)
	deadline func()
	ended    bool
}

// doEvent walks do's policy as events on the DES: the same attempts,
// re-dials, backoffs and deadline, each wait a child event of the
// calling one (netsim.Flow.After), so no goroutine waits on it.
func (r *RobustConn) doEvent(f netsim.Flow, req []byte, then func(netsim.Flow, []byte, error)) {
	w := &walk{r: r, req: req, then: then, deadline: func() {}}
	if budget := r.budget(); budget > 0 {
		w.deadline = f.After(budget, func(f netsim.Flow) { w.end(f, nil, r.timeoutErr(nil)) })
	}
	w.attempt(f, 0)
}

// attempt runs attempt n: the session's conn, re-dialed if it died,
// then one request and its reply.
func (w *walk) attempt(f netsim.Flow, n int) {
	w.r.currentIn(f, func(f netsim.Flow, conn *netsim.Conn, err error) {
		switch {
		case w.ended:
		case err != nil:
			w.failed(f, n, err, true)
		default:
			if err := conn.SendEvent(f.Event(), w.req); err != nil {
				w.failed(f, n, err, false)
				return
			}
			conn.RecvEvent(f.Event(), func(ev *des.Ctx, reply []byte, err error) {
				switch f := f.In(ev); {
				case w.ended:
				case err != nil:
					w.failed(f, n, err, false)
				default:
					w.end(f, reply, nil)
				}
			})
		}
	})
}

// failed ends the exchange with err or, when the policy retries it,
// arms the backoff before attempt n+1.
func (w *walk) failed(f netsim.Flow, n int, err error, redial bool) {
	if !retryable(err, redial) || n+1 >= w.r.opts.MaxAttempts {
		w.end(f, nil, err)
		return
	}
	env := w.r.daemon.cfg.Network.Environment()
	f.After(env.Scale().ToReal(w.r.backoffDelay(n)), func(f netsim.Flow) {
		if !w.ended {
			w.attempt(f, n+1)
		}
	})
}

// end ends the exchange once, stopping its deadline.
func (w *walk) end(f netsim.Flow, out []byte, err error) {
	if w.ended {
		return
	}
	w.ended = true
	w.deadline()
	w.then(f, out, err)
}

// Exchange sends req and hands its one reply to then in f, under the
// session's policy — the shape every PeerHood Community operation uses.
// Exchanges are serialized per session: a concurrent one waits for the
// exchange in flight rather than interleaving with it, which would pair
// requests with the wrong replies. On the goroutine engine do walks the
// policy with blocking calls under exMu; on the DES doEvent walks it as
// a cascade of f's events, queued behind the exchange in flight.
//
// A failed exchange poisons the session: a reply may still be in flight
// (a stalled or slow peer answering after our deadline), and the next
// exchange would read it as its own reply. The session is discarded,
// and the next exchange re-dials fresh.
func (r *RobustConn) Exchange(f netsim.Flow, req []byte, then func(netsim.Flow, []byte, error)) {
	if f.Event() == nil {
		r.exMu.Lock()
		out, err := r.do(f.Context(), func(ctx context.Context, conn *netsim.Conn) ([]byte, error) {
			if err := conn.Send(req); err != nil {
				return nil, err
			}
			return conn.Recv(ctx)
		})
		if err != nil {
			r.poison(f)
		}
		r.exMu.Unlock()
		then(f, out, err)
		return
	}
	r.enter(f, func(f netsim.Flow, leave func(netsim.Flow)) {
		r.doEvent(f, req, func(f netsim.Flow, out []byte, err error) {
			if err != nil {
				r.poison(f)
			}
			leave(f)
			then(f, out, err)
		})
	})
}

// Call is Exchange for a blocking caller (netsim.Await).
func (r *RobustConn) Call(ctx context.Context, request []byte) ([]byte, error) {
	return netsim.Await(r.daemon.cfg.Network, ctx, r.daemon.cfg.Device, func(f netsim.Flow, done func(netsim.Flow, []byte, error)) {
		r.Exchange(f, request, done)
	})
}

// enter starts an exchange on the DES once the one before it has left
// the session: each exchange's turn is a completion that the next one
// joins, so leave runs the next exchange's start in its own event.
func (r *RobustConn) enter(f netsim.Flow, start func(f netsim.Flow, leave func(netsim.Flow))) {
	turn := new(netsim.Completion[struct{}])
	r.mu.Lock()
	prev := r.turn
	r.turn = turn
	r.mu.Unlock()
	leave := func(f netsim.Flow) { turn.Set(f, struct{}{}, nil) }
	if prev == nil {
		start(f, leave)
		return
	}
	prev.Then(f, func(f netsim.Flow, _ struct{}, _ error) { start(f, leave) })
}

// poison drops the current session without closing the RobustConn.
func (r *RobustConn) poison(f netsim.Flow) {
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.mu.Unlock()
	if conn != nil {
		f.Abort(conn)
	}
}

// Close shuts the connection down, aborting its conn: an exchange owns
// the session until its reply lands, so a closing owner owes nothing
// in flight a delivery, and an abort never blocks (inside an event it
// must not). Close clears r.conn so no later poison or upgrade can
// release the same session twice — each *netsim.Conn gets exactly one
// Close/Abort from its one owner.
func (r *RobustConn) Close() {
	if conn := r.shut(); conn != nil {
		conn.Abort()
	}
}

// Abort is Close from flow f, inside f's event on the DES: the session
// lost a race or is surplus. Aborting the conn fails an exchange
// stalled in its receive.
func (r *RobustConn) Abort(f netsim.Flow) {
	if conn := r.shut(); conn != nil {
		f.Abort(conn)
	}
}

// shut marks the session closed and takes its conn.
func (r *RobustConn) shut() *netsim.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	conn := r.conn
	r.conn = nil
	return conn
}

// TryUpgrade re-dials the service over a more preferred technology when
// one has become reachable again — the other half of "finds the best
// possible alternative": after falling back to WLAN or GPRS, the
// connection returns to Bluetooth once the peer is back in range. It
// reports whether an upgrade happened. The server observes the upgrade
// as a new session, like any failover.
func (r *RobustConn) TryUpgrade(ctx context.Context) bool {
	r.mu.Lock()
	if r.closed || r.conn == nil || !r.conn.Alive() {
		r.mu.Unlock()
		return false
	}
	current := r.conn.Technology()
	r.mu.Unlock()

	for _, p := range r.daemon.plugins {
		tech := p.Technology()
		if techRank(tech) >= techRank(current) {
			return false // already on the best reachable tier
		}
		if !p.Reachable(r.dev) {
			continue
		}
		conn, err := p.Dial(ctx, r.dev, servicePortPrefix+string(r.service))
		if err != nil {
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = conn.Close()
			return false
		}
		old := r.conn
		r.conn = conn
		r.failures++
		r.mu.Unlock()
		if old != nil {
			_ = old.Close() // superseded by the upgraded connection
		}
		return true
	}
	return false
}

// techRank orders technologies by preference (lower is better).
func techRank(t radio.Technology) int {
	switch t {
	case radio.Bluetooth:
		return 0
	case radio.WLAN:
		return 1
	case radio.GPRS:
		return 2
	default:
		return 3
	}
}
