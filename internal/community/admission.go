package community

import (
	"time"

	"repro/internal/ids"
)

// ServerOptions tunes the server's behavior under overload. The zero
// value (via NewServer) serves every session it can hold and never
// rate-limits, which preserves the classic Table 6 behavior; overload
// experiments shrink the limits explicitly.
type ServerOptions struct {
	// MaxSessions bounds the concurrent serving sessions (default 1024).
	// Sessions are served on demand and hold nothing once they end, so
	// a generous bound costs nothing in a quiet neighborhood.
	MaxSessions int
	// QueueDepth bounds the admission queue holding accepted sessions
	// that wait for a free serving slot (default 256). A session arriving
	// with the queue full is shed: it gets one BUSY frame and is closed.
	QueueDepth int
	// RatePerPeer is the per-peer request budget in weighted requests
	// per modeled second; 0 disables rate limiting. Control frames
	// (PS_PING) weigh nothing, bulk transfers weigh more than small
	// reads, so pings stay answerable while profiles are throttled.
	RatePerPeer float64
	// Burst is the token-bucket depth (default 4×RatePerPeer).
	Burst float64
	// WriteTimeout bounds, in modeled time, how long a response write
	// may wait on a peer that has stopped reading before the session is
	// aborted (default 30s).
	WriteTimeout time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Burst <= 0 {
		o.Burst = 4 * o.RatePerPeer
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// ServerStats counts the server's admission decisions, so overload
// experiments can see load being shed explicitly instead of latency
// growing without bound.
type ServerStats struct {
	// Admitted counts sessions handed to a serving slot.
	Admitted uint64
	// Queued counts sessions that waited in the admission queue before
	// being served.
	Queued uint64
	// Shed counts sessions rejected at admission with a BUSY frame (or
	// dropped outright when even the shed path was saturated).
	Shed uint64
	// RateLimited counts requests refused with BUSY by the per-peer
	// token bucket.
	RateLimited uint64
	// Served counts requests dispatched to a Table 6 handler.
	Served uint64
	// SlowWriters counts sessions aborted because a response write
	// exceeded WriteTimeout — the peer stopped reading (on the DES, at
	// once when a response finds the in-flight window full).
	SlowWriters uint64
	// QueueDepthMax is the admission queue's high-water mark.
	QueueDepthMax uint64
}

// Add accumulates another snapshot into s (QueueDepthMax takes the
// max), so experiments can sum a whole deployment.
func (s *ServerStats) Add(o ServerStats) {
	s.Admitted += o.Admitted
	s.Queued += o.Queued
	s.Shed += o.Shed
	s.RateLimited += o.RateLimited
	s.Served += o.Served
	s.SlowWriters += o.SlowWriters
	if o.QueueDepthMax > s.QueueDepthMax {
		s.QueueDepthMax = o.QueueDepthMax
	}
}

// Stats returns a snapshot of the server's admission counters: the
// serving path's admission counts beside the server's own.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerStats{RateLimited: s.rateLimited.Load(), Served: s.served.Load()}
	if s.svc != nil {
		a := s.svc.Stats()
		st.Admitted, st.Queued, st.Shed, st.SlowWriters, st.QueueDepthMax = a.Admitted, a.Queued, a.Shed, a.SlowWriters, a.QueueDepthMax
	}
	return st
}

// opWeight prices one request against the per-peer budget. Pings are
// free — under overload the server keeps answering the tiny control
// frames that feed liveness decisions, and sheds the expensive traffic
// instead. Bulk transfers cost four small reads.
func opWeight(op string) float64 {
	switch op {
	case OpPing:
		return 0
	case OpGetProfile, OpFetchShared, OpSharedContent:
		return 4
	default:
		return 1
	}
}

// peerBucket is one peer's token bucket, refilled on the modeled
// clock so rate limiting replays deterministically with the scenario.
type peerBucket struct {
	tokens float64
	last   time.Duration
}

// allowRequest charges weight against the remote peer's bucket,
// reporting false when the budget is exhausted.
func (s *Server) allowRequest(remote ids.DeviceID, weight float64) bool {
	if s.opts.RatePerPeer <= 0 || weight == 0 {
		return true
	}
	now := s.env.Elapsed()
	s.rlMu.Lock()
	defer s.rlMu.Unlock()
	b, ok := s.buckets[remote]
	if !ok {
		b = &peerBucket{tokens: s.opts.Burst, last: now}
		s.buckets[remote] = b
	}
	if now > b.last {
		b.tokens += s.opts.RatePerPeer * (now - b.last).Seconds()
		if b.tokens > s.opts.Burst {
			b.tokens = s.opts.Burst
		}
		b.last = now
	}
	if b.tokens < weight {
		return false
	}
	b.tokens -= weight
	return true
}
