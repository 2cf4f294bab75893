package peerhood

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

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
// Every operation runs under a per-call deadline (RobustOptions.
// CallTimeout) and retries link losses — including re-dial failures —
// with capped exponential backoff. Backoff jitter comes from a private
// rand.Rand seeded from the (local, remote, service) triple, so retry
// schedules are deterministic per connection and independent across
// connections.
type RobustConn struct {
	daemon  *Daemon
	dev     ids.DeviceID
	service ids.ServiceName
	opts    RobustOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	// exMu serializes Call exchanges: a request/response pair owns the
	// session until its reply (or failure) lands, so concurrent Calls
	// can never read each other's responses.
	exMu sync.Mutex

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
	// CallTimeout bounds one Send/Recv/Call including all retries and
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
// options. The initial dial is eager: it fails fast rather than
// retrying, so callers learn immediately when a peer is unreachable.
func (d *Daemon) ConnectRobustWith(ctx context.Context, dev ids.DeviceID, service ids.ServiceName, opts RobustOptions) (*RobustConn, error) {
	conn, err := d.Connect(ctx, dev, service)
	if err != nil {
		return nil, err
	}
	return &RobustConn{
		daemon:  d,
		dev:     dev,
		service: service,
		opts:    opts.withDefaults(),
		rng:     rand.New(rand.NewSource(robustSeed(d.cfg.Device, dev, service))),
		conn:    conn,
	}, nil
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

// current returns the live conn, re-dialing if the previous one died.
func (r *RobustConn) current(ctx context.Context) (*netsim.Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, netsim.ErrConnClosed
	}
	if r.conn != nil && r.conn.Alive() {
		return r.conn, nil
	}
	if r.conn != nil {
		// Dead session: drop our hold before replacing it, so the pair
		// can recycle. We are its sole releaser — Close and poison both
		// clear r.conn under the lock before releasing.
		r.conn.Abort()
		r.conn = nil
	}
	conn, err := r.daemon.Connect(ctx, r.dev, r.service)
	if err != nil {
		return nil, fmt.Errorf("peerhood: seamless reconnect to %s: %w", r.dev, err)
	}
	r.conn = conn
	r.failures++
	return conn, nil
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

// deadlineContext derives the per-operation context. The deadline is a
// callback on the environment's clock (so manual clocks drive it in
// tests, and on the discrete-event clock it is an event with no
// goroutine parked on it) that cancels with ErrCallTimeout as the
// cause; the release function stops it, so a call that ends in time
// leaves no timer behind.
func (r *RobustConn) deadlineContext(ctx context.Context) (context.Context, func()) {
	if r.opts.CallTimeout <= 0 {
		return ctx, func() {}
	}
	env := r.daemon.cfg.Network.Environment()
	octx, cancel := context.WithCancelCause(ctx)
	stop := env.Clock().AfterFunc(realTimeout(env, r.opts.CallTimeout), func() { cancel(ErrCallTimeout) })
	return octx, func() {
		stop()
		cancel(context.Canceled)
	}
}

// resolveErr maps an operation failure to what the caller should see:
// when the per-call deadline is what stopped us, report ErrCallTimeout
// instead of the incidental context or link error.
func (r *RobustConn) resolveErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); errors.Is(cause, ErrCallTimeout) {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrCallTimeout) {
			return fmt.Errorf("%w (budget %v, last error: %v)", ErrCallTimeout, r.opts.CallTimeout, err)
		}
		return fmt.Errorf("%w (budget %v)", ErrCallTimeout, r.opts.CallTimeout)
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

// do runs one operation under the retry/backoff/deadline policy. Link
// losses — from the operation or from re-dialing — are retried after a
// backoff; every other error is final.
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
			if errors.Is(err, netsim.ErrConnClosed) || octx.Err() != nil {
				return nil, r.resolveErr(octx, err)
			}
			lastErr = err // re-dial failed: peer may come back, retry
			continue
		}
		out, err := op(octx, conn)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !errors.Is(err, netsim.ErrLinkLost) {
			return nil, r.resolveErr(octx, err)
		}
	}
	return nil, r.resolveErr(octx, lastErr)
}

// Send transmits a message, failing over to another technology if the
// link breaks.
func (r *RobustConn) Send(ctx context.Context, payload []byte) error {
	_, err := r.do(ctx, func(_ context.Context, conn *netsim.Conn) ([]byte, error) {
		return nil, conn.Send(payload)
	})
	return err
}

// Recv receives the next message, failing over if the link breaks while
// waiting. After a failover the message stream restarts from the new
// session.
func (r *RobustConn) Recv(ctx context.Context) ([]byte, error) {
	return r.do(ctx, func(octx context.Context, conn *netsim.Conn) ([]byte, error) {
		return conn.Recv(octx)
	})
}

// Call sends a request and waits for one response, with failover
// retrying the whole exchange — the shape every PeerHood Community
// operation uses. Calls are serialized per connection: a concurrent
// Call waits for the in-flight exchange rather than interleaving with
// it, which would pair requests with the wrong responses. Raw
// Send/Recv remain unserialized for streaming protocols.
func (r *RobustConn) Call(ctx context.Context, request []byte) ([]byte, error) {
	r.exMu.Lock()
	defer r.exMu.Unlock()
	out, err := r.do(ctx, func(octx context.Context, conn *netsim.Conn) ([]byte, error) {
		if err := conn.Send(request); err != nil {
			return nil, err
		}
		return conn.Recv(octx)
	})
	if err != nil {
		// The exchange is poisoned: a reply may still be in flight (a
		// stalled or slow peer answering after our deadline), and the
		// next Call would read it as its own response. Discard the
		// session; the next exchange re-dials fresh.
		r.poison()
	}
	return out, err
}

// poison drops the current session without closing the RobustConn.
func (r *RobustConn) poison() {
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.mu.Unlock()
	if conn != nil {
		conn.Abort()
	}
}

// Close shuts the connection down. It clears r.conn so no later
// poison or upgrade can release the same session twice — each
// *netsim.Conn gets exactly one Close/Abort from its one owner.
func (r *RobustConn) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.conn != nil {
		_ = r.conn.Close() // already failing over or shutting down; nothing to do with the error
		r.conn = nil
	}
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
