package netsim

import (
	"context"
	"fmt"
	"sync"

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
// drawn on the caller and the round runs as one event cascade on the
// device's home that the caller awaits (des.Scheduler.Await); it always
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
	done := make(chan struct{})
	n.sched.At(0, homeOf(from), func(ctx *des.Ctx) {
		n.handshakeEvent(ctx, from, tech, port, h, func(ctx *des.Ctx) {
			n.RoundEvent(ctx, from, tech, port, next, func(*des.Ctx) { close(done) })
		})
	})
	if err := n.sched.Await(done); err != nil {
		panic(fmt.Sprintf("netsim: %s: round cascade: %v", from, err))
	}
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

// Service serves handshakes on one listener; Stop ends it.
type Service struct {
	lis    *Listener
	first  ServeStep
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Serve serves every conn dialed to l from first; do not Accept on l
// as well. On the discrete-event engine the listener serves through
// AcceptEvent: each conn is an event chain, armed inside its dial
// completion or, for a blocking Dial, inside an event on the listener
// device's home, and no goroutine exists. On the goroutine engine an
// accept loop serves each conn on a goroutine of its own.
func (l *Listener) Serve(first ServeStep) *Service {
	s := &Service{lis: l, first: first}
	if l.net.sched != nil {
		l.AcceptEvent(func(ctx *des.Ctx, c *Conn) { c.serveEvent(ctx, first) })
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(1)
	go s.acceptLoop(ctx)
	return s
}

// Stop closes the listener, cancels in-flight serving and waits for
// every serving goroutine.
func (s *Service) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.lis.Close()
	s.wg.Wait()
}

func (s *Service) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept(ctx)
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(ctx, c)
	}
}

// serve is the goroutine engine's serving side of one conn.
func (s *Service) serve(ctx context.Context, c *Conn) {
	defer s.wg.Done()
	defer func() { _ = c.Close() }()
	for step := s.first; step != nil; {
		req, err := c.Recv(ctx)
		if err != nil {
			return
		}
		var reply []byte
		if reply, step = step(c.Remote(), req); reply == nil || c.Send(reply) != nil {
			return
		}
	}
}

// serveEvent is the event engine's serving side of one conn, from the
// step that takes the next request.
func (c *Conn) serveEvent(ctx *des.Ctx, step ServeStep) {
	c.RecvEvent(ctx, func(ctx *des.Ctx, req []byte, err error) {
		if err != nil {
			c.CloseEvent(ctx)
			return
		}
		reply, next := step(c.Remote(), req)
		if reply == nil || c.SendEvent(ctx, reply) != nil {
			c.CloseEvent(ctx)
			return
		}
		if next == nil {
			c.RecvEvent(ctx, func(ctx *des.Ctx, _ []byte, _ error) { c.CloseEvent(ctx) })
			return
		}
		c.serveEvent(ctx, next)
	})
}
