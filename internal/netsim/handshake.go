package netsim

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/radio"
)

// This file sequences request/reply handshakes, once per engine, for
// every protocol plane that exchanges frames with devices in range. A
// handshake is an opening frame plus steps: the initiator's steps map
// each reply to the next frame, the serving steps map each request to a
// reply. A plane writes only its steps and its round plan; Round,
// RoundEvent and Listener.Serve make the transport calls. On the
// goroutine engine they are blocking calls (the oracle); on the
// discrete-event engine they are one DialEvent/SendEvent/RecvEvent/
// CloseEvent cascade per handshake and an AcceptEvent chain per served
// conn, whether a cascade or a blocking Dial opened it, so no goroutine
// waits on a conn. Both engines make the same transport calls in the
// same order and call the steps in the same order.

// Step is one initiator step. It takes the reply to the frame last
// sent, or the error that ended the handshake (a failed dial, send or
// receive), and returns the next frame with the step that takes its
// reply. A nil frame ends the handshake, and a step given an error is
// the last one whatever it returns.
type Step func(reply []byte, err error) (next []byte, then Step)

// ServeStep is one serving step: it answers a request from the dialing
// device with a reply and the step for the next request. A nil reply
// closes the conn. A nil next ends the serving side once the reply is
// sent: the event engine parks the end until the initiator closes it
// (closing right after the send would make CloseEvent poll every flush
// retry while the reply is in flight; a parked receive costs one
// callback when the initiator's close arrives), and the goroutine
// engine closes it, Close flushing the reply first.
type ServeStep func(from ids.DeviceID, req []byte) (reply []byte, next ServeStep)

// Handshake is one planned exchange: the partner, the opening frame and
// the step that takes the reply to it.
type Handshake struct {
	To   ids.DeviceID
	Open []byte
	Step Step
}

// Round runs one round of handshakes from a device, drawing each from
// next until it reports false; each handshake ends before the next is
// drawn. On the goroutine engine the handshakes are blocking calls
// bounded by ctx. On the discrete-event engine the first handshake is
// drawn on the caller and the round runs as one flow (Await), an event
// cascade on the device's home that the caller awaits; it always
// finishes in virtual time, so ctx is not consulted, and an empty round
// schedules nothing. Never call it from inside an event: use
// RoundEvent there.
func (n *Network) Round(ctx context.Context, from ids.DeviceID, tech radio.Technology, port string, next func() (Handshake, bool)) {
	if n.sched == nil {
		for h, ok := next(); ok; h, ok = next() {
			n.handshake(ctx, from, tech, port, h)
		}
		return
	}
	h, ok := next()
	if !ok {
		return
	}
	Await(n, ctx, from, func(f Flow, done func(Flow, struct{}, error)) {
		n.handshakeEvent(f.ev, from, tech, port, h, func(ev *des.Ctx) {
			n.RoundEvent(ev, from, tech, port, next, func(ev *des.Ctx) { done(f.In(ev), struct{}{}, nil) })
		})
	})
}

// RoundEvent is Round for a caller that is an event on the network's
// scheduler: it draws and runs the round's handshakes as a cascade and
// calls then, inside the event that ends the last one. With nothing to
// draw it calls then at once.
func (n *Network) RoundEvent(ctx *des.Ctx, from ids.DeviceID, tech radio.Technology, port string, next func() (Handshake, bool), then func(*des.Ctx)) {
	h, ok := next()
	if !ok {
		then(ctx)
		return
	}
	n.handshakeEvent(ctx, from, tech, port, h, func(ctx *des.Ctx) {
		n.RoundEvent(ctx, from, tech, port, next, then)
	})
}

// handshake runs one handshake with blocking calls.
func (n *Network) handshake(ctx context.Context, from ids.DeviceID, tech radio.Technology, port string, h Handshake) {
	c, err := n.Dial(ctx, from, h.To, tech, port)
	if err != nil {
		h.Step(nil, err)
		return
	}
	defer func() { _ = c.Close() }()
	frame, step := h.Open, h.Step
	for {
		if err := c.Send(frame); err != nil {
			step(nil, err)
			return
		}
		reply, err := c.Recv(ctx)
		if frame, step = step(reply, err); err != nil || frame == nil {
			return
		}
	}
}

// handshakeEvent runs one handshake as a DialEvent → (SendEvent →
// RecvEvent)… → CloseEvent chain, then calls done.
func (n *Network) handshakeEvent(ctx *des.Ctx, from ids.DeviceID, tech radio.Technology, port string, h Handshake, done func(*des.Ctx)) {
	n.DialEvent(ctx, from, h.To, tech, port, func(ctx *des.Ctx, c *Conn, err error) {
		if err != nil {
			h.Step(nil, err)
			done(ctx)
			return
		}
		c.exchangeEvent(ctx, h.Open, h.Step, done)
	})
}

// exchangeEvent sends frame and hands the reply to step, until a step
// ends the handshake; then it closes the conn and calls done.
func (c *Conn) exchangeEvent(ctx *des.Ctx, frame []byte, step Step, done func(*des.Ctx)) {
	if err := c.SendEvent(ctx, frame); err != nil {
		step(nil, err)
		c.CloseEvent(ctx)
		done(ctx)
		return
	}
	c.RecvEvent(ctx, func(ctx *des.Ctx, reply []byte, err error) {
		next, then := step(reply, err)
		if err != nil || next == nil {
			c.CloseEvent(ctx)
			done(ctx)
			return
		}
		c.exchangeEvent(ctx, next, then, done)
	})
}

// Limit bounds a service's admission (ServeLimit), decided as each
// conn is accepted: a conn is served while fewer than Sessions are,
// waits in a FIFO queue of at most Queue conns (accepted, not yet read)
// while they are not, and is otherwise shed: sent Busy unprompted and
// closed. A reply to a peer that stopped reading aborts its conn after
// WriteTimeout of modeled time on the goroutine engine; an event cannot
// wait, so on the event engine as soon as it finds the window full.
type Limit struct {
	Sessions     int
	Queue        int
	Busy         []byte
	WriteTimeout time.Duration
}

// ServiceStats counts a service's admission decisions: conns handed to
// a session (on accept or from the queue), conns that waited in the
// queue, conns shed, sessions aborted because the peer stopped reading
// replies, and the queue's high-water mark.
type ServiceStats struct {
	Admitted, Queued, Shed, SlowWriters, QueueDepthMax uint64
}

// Service serves handshakes on one listener; Stop ends it.
type Service struct {
	lis    *Listener
	first  ServeStep
	lim    *Limit // nil serves every conn at once
	cancel context.CancelFunc
	wg     sync.WaitGroup
	busy   chan struct{} // goroutine engine: a slot per Busy frame in flight

	mu      sync.Mutex // guards the rest
	active  int        // sessions being served
	queue   []*Conn
	stopped bool
	stats   ServiceStats
}

// Serve serves every conn dialed to l from first; do not Accept on l
// as well. On the discrete-event engine the listener serves through
// AcceptEvent: each conn is an event chain, armed inside its dial
// completion or, for a blocking Dial, inside an event on the listener
// device's home, and no goroutine exists. On the goroutine engine an
// accept loop serves each conn on a goroutine of its own.
func (l *Listener) Serve(first ServeStep) *Service { return l.serve(first, nil) }

// ServeLimit is Serve with admission bounded by lim. On the
// discrete-event engine admission is decided in an event on the
// listener device's home, scheduled from the handoff, so it follows
// arrival order whatever the shard and worker counts.
func (l *Listener) ServeLimit(first ServeStep, lim Limit) *Service { return l.serve(first, &lim) }

func (l *Listener) serve(first ServeStep, lim *Limit) *Service {
	s := &Service{lis: l, first: first, lim: lim, cancel: func() {}}
	switch {
	case l.net.sched == nil:
		ctx, cancel := context.WithCancel(context.Background())
		s.cancel = cancel
		if lim != nil {
			s.busy = make(chan struct{}, lim.Queue)
		}
		s.wg.Add(1)
		go s.acceptLoop(ctx)
	case lim == nil:
		l.AcceptEvent(func(ctx *des.Ctx, c *Conn) {
			s.admit(c) // unbounded: always served, only counted
			s.serveEvent(ctx, c, first)
		})
	default:
		l.AcceptEvent(func(ctx *des.Ctx, c *Conn) {
			ctx.At(0, c.local.home, func(ctx *des.Ctx) {
				if serve, shed := s.admit(c); serve {
					s.serveEvent(ctx, c, first)
				} else if shed {
					_ = c.SendEvent(ctx, lim.Busy)
					c.CloseEvent(ctx)
				}
			})
		})
	}
	return s
}

// Stop closes the listener and aborts the conns still queued. On the
// goroutine engine it also aborts the conns being served and waits for
// every serving goroutine; on the discrete-event engine a conn being
// served ends when its peer or the network closes it.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopped = true
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.cancel()
	s.lis.Close()
	s.wg.Wait()
	for _, c := range queued {
		c.Abort()
	}
}

// Stats returns a snapshot of the service's admission counts.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// admit decides an accepted conn's admission: served while a session is
// free, queued while the queue has room and Stop has not run, else shed.
func (s *Service) admit(c *Conn) (serve, shed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.lim == nil || s.active < s.lim.Sessions:
		s.active++
		s.stats.Admitted++
		return true, false
	case len(s.queue) < s.lim.Queue && !s.stopped:
		s.queue = append(s.queue, c)
		s.stats.Queued++
		s.stats.QueueDepthMax = max(s.stats.QueueDepthMax, uint64(len(s.queue)))
		return false, false
	}
	s.stats.Shed++
	return false, true
}

// next ends a session and returns the queued conn that takes its
// place, or nil.
func (s *Service) next() *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		s.active--
		return nil
	}
	c := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	s.stats.Admitted++
	return c
}

// slowWriter counts a session aborted because its peer stopped reading.
func (s *Service) slowWriter() {
	s.mu.Lock()
	s.stats.SlowWriters++
	s.mu.Unlock()
}

func (s *Service) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept(ctx)
		if err != nil {
			return
		}
		if serve, shed := s.admit(c); serve {
			s.wg.Add(1)
			go s.session(ctx, c)
		} else if shed {
			s.shed(c)
		}
	}
}

// session serves c, then each queued conn that takes its place: an idle
// service holds no serving goroutine, a loaded one at most Sessions.
func (s *Service) session(ctx context.Context, c *Conn) {
	defer s.wg.Done()
	for ; c != nil; c = s.next() {
		s.serve(ctx, c)
	}
}

// serve is the goroutine engine's serving side of one conn. Close
// flushes the last reply; a failed reply aborts the conn instead, and
// so does Stop, which owes nobody a flush.
func (s *Service) serve(ctx context.Context, c *Conn) {
	for step := s.first; step != nil; {
		req, err := c.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				c.Abort()
				return
			}
			break
		}
		var reply []byte
		if reply, step = step(c.Remote(), req); reply == nil {
			break
		}
		var timeout time.Duration
		if s.lim != nil {
			timeout = s.lim.WriteTimeout
		}
		if err := c.SendDeadline(reply, timeout); err != nil {
			if errors.Is(err, ErrSendTimeout) {
				s.slowWriter()
			}
			c.Abort()
			return
		}
	}
	_ = c.Close()
}

// shed sends Busy to a conn turned away and closes it, on a goroutine
// of its own so the accept loop never waits on the flush; the conn is
// fresh, so Send cannot block. With Queue Busy frames in flight, the
// conn is aborted without one.
func (s *Service) shed(c *Conn) {
	select {
	case s.busy <- struct{}{}:
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = c.Send(s.lim.Busy)
			_ = c.Close()
			<-s.busy
		}()
	default:
		c.Abort()
	}
}

// serveEvent is the event engine's serving side of one conn, from the
// step that takes the next request.
func (s *Service) serveEvent(ctx *des.Ctx, c *Conn, step ServeStep) {
	c.RecvEvent(ctx, func(ctx *des.Ctx, req []byte, err error) {
		if err != nil {
			s.endEvent(ctx, c)
			return
		}
		reply, next := step(c.Remote(), req)
		if reply == nil {
			s.endEvent(ctx, c)
			return
		}
		if err := c.SendEvent(ctx, reply); err != nil {
			if errors.Is(err, ErrSendTimeout) {
				s.slowWriter()
				c.abortEvent(ctx)
			}
			s.endEvent(ctx, c)
			return
		}
		if next == nil {
			c.RecvEvent(ctx, func(ctx *des.Ctx, _ []byte, _ error) { s.endEvent(ctx, c) })
			return
		}
		s.serveEvent(ctx, c, next)
	})
}

// endEvent closes a served conn and serves the queued conn that takes
// its session.
func (s *Service) endEvent(ctx *des.Ctx, c *Conn) {
	c.CloseEvent(ctx)
	if next := s.next(); next != nil {
		s.serveEvent(ctx, next, s.first)
	}
}
