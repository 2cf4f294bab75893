package netsim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// TestStressManyConnections runs many concurrent connections between a
// mesh of devices, verifying per-connection ordering and integrity
// under contention for the shared radios.
func TestStressManyConnections(t *testing.T) {
	env := radio.NewEnvironment(WithTestScale())
	net := New(env, 99)
	defer net.Close()
	const devices = 6
	for i := 0; i < devices; i++ {
		addStatic(t, env, ids.DeviceIDf("d%d", i), geo.Pt(float64(i), 0), radio.Bluetooth)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every device runs an echo server.
	for i := 0; i < devices; i++ {
		l, err := net.Listen(ids.DeviceIDf("d%d", i), "echo")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(l *Listener) {
			for {
				conn, err := l.Accept(ctx)
				if err != nil {
					return
				}
				go func(c *Conn) {
					defer c.Close()
					for {
						msg, err := c.Recv(ctx)
						if err != nil {
							return
						}
						if err := c.Send(msg); err != nil {
							return
						}
					}
				}(conn)
			}
		}(l)
	}

	const msgsPerPair = 20
	var wg sync.WaitGroup
	errs := make(chan error, devices*devices)
	for i := 0; i < devices; i++ {
		for j := 0; j < devices; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				from, to := ids.DeviceIDf("d%d", i), ids.DeviceIDf("d%d", j)
				conn, err := net.Dial(ctx, from, to, radio.Bluetooth, "echo")
				if err != nil {
					errs <- fmt.Errorf("%s->%s dial: %w", from, to, err)
					return
				}
				defer conn.Close()
				for k := 0; k < msgsPerPair; k++ {
					want := fmt.Sprintf("%d-%d-%d", i, j, k)
					if err := conn.Send([]byte(want)); err != nil {
						errs <- fmt.Errorf("%s->%s send %d: %w", from, to, k, err)
						return
					}
					got, err := conn.Recv(ctx)
					if err != nil {
						errs <- fmt.Errorf("%s->%s recv %d: %w", from, to, k, err)
						return
					}
					if string(got) != want {
						errs <- fmt.Errorf("%s->%s echo %d: got %q want %q", from, to, k, got, want)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRadioContentionSlowsParallelTransfers verifies the shared-medium
// model: two connections transmitting large payloads from the same
// device take roughly twice as long as one.
func TestRadioContentionSlowsParallelTransfers(t *testing.T) {
	// ~4 modeled seconds at the Bluetooth rate, so transfer time
	// dominates timer-granularity noise at the 1e-3 scale.
	const payload = 4 * 700_000 / 8
	run := func(streams int) time.Duration {
		// 1e-2 scale: the 4 s transfer sleeps 40 ms, so a few ms of
		// scheduling noise cannot blur the 2x contention ratio.
		env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-2)))
		net := New(env, 1)
		defer net.Close()
		addStatic(t, env, "src", geo.Pt(0, 0), radio.Bluetooth)
		addStatic(t, env, "dst", geo.Pt(5, 0), radio.Bluetooth)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		conns := make([]*Conn, streams)
		for s := 0; s < streams; s++ {
			l, err := net.Listen("dst", fmt.Sprintf("sink-%d", s))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			acceptCh := make(chan *Conn, 1)
			go func() {
				c, err := l.Accept(ctx)
				if err == nil {
					acceptCh <- c
				}
			}()
			c, err := net.Dial(ctx, "src", "dst", radio.Bluetooth, fmt.Sprintf("sink-%d", s))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			server := <-acceptCh
			conns[s] = c
			go func(sv *Conn) { // keep draining
				for {
					if _, err := sv.Recv(ctx); err != nil {
						return
					}
				}
			}(server)
		}

		sw := vtime.NewStopwatch(env.Clock(), env.Scale())
		var wg sync.WaitGroup
		for _, c := range conns {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Send(make([]byte, payload)); err != nil {
					t.Error(err)
					return
				}
				// Wait until the message is actually delivered: Close
				// flushes.
				c.Close()
			}()
		}
		wg.Wait()
		return sw.Elapsed()
	}

	one := run(1)
	two := run(2)
	if two < one*3/2 {
		t.Fatalf("two parallel transfers (%v) should take ~2x one (%v); shared medium not modeled", two, one)
	}
}

// TestStressPartitionChurn flaps a partition while traffic flows; the
// system must neither deadlock nor deliver corrupted messages.
func TestStressPartitionChurn(t *testing.T) {
	env := radio.NewEnvironment(WithTestScale())
	net := New(env, 7)
	defer net.Close()
	addStatic(t, env, "a", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "b", geo.Pt(5, 0), radio.Bluetooth)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept(ctx)
			if err != nil {
				return
			}
			go func(c *Conn) {
				defer c.Close()
				for {
					if _, err := c.Recv(ctx); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	stop := make(chan struct{})
	go func() { // churn
		for {
			select {
			case <-stop:
				return
			default:
				net.Partition("a", "b")
				time.Sleep(2 * time.Millisecond)
				net.Heal("a", "b")
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	delivered := 0
	for i := 0; i < 50; i++ {
		conn, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
		if err != nil {
			// Partitioned right now; pace retries so attempts span
			// several churn cycles instead of one partition window.
			time.Sleep(time.Millisecond)
			continue
		}
		if err := conn.Send([]byte("payload")); err == nil {
			delivered++
		}
		conn.Close()
	}
	close(stop)
	if delivered == 0 {
		t.Fatal("no message ever delivered despite heal windows")
	}
}

// TestSendRacingConnFailureReleasesPending: a Send that passes the
// closed check just before its conn fails can enqueue after the pump
// has exited and drained its queue. That message must still be
// released, or Close's flush waiter parks on it forever (the leak
// checker's waitFlush reports). The race is narrow, so the test
// repeats it, partitioning the link at varying moments of a send
// stream.
func TestSendRacingConnFailureReleasesPending(t *testing.T) {
	env, net := fastWorld(t)
	addStatic(t, env, "a", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "b", geo.Pt(5, 0), radio.Bluetooth)
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	accepted := make(chan *Conn)
	go func() {
		for {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < 500; i++ {
		c, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		received := make(chan struct{})
		go func() {
			defer close(received)
			for {
				if _, err := server.Recv(ctx); err != nil {
					return
				}
			}
		}()
		sending := make(chan struct{})
		go func() {
			defer close(sending)
			for c.Send([]byte("x")) == nil {
			}
		}()
		time.Sleep(time.Duration(i%7) * 10 * time.Microsecond)
		net.Partition("a", "b")
		<-sending
		<-received
		flushed := make(chan struct{})
		go func() {
			c.pending.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: a send that raced the conn's failure is still pending", i)
		}
		c.Abort()
		server.Abort()
		net.Heal("a", "b")
	}
}
