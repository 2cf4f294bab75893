package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/radio"
)

// A stalled serving session is a gray failure: the link stays up, the
// client's requests keep arriving, but the server's replies are
// withheld. Nothing resets; the caller just waits.
func TestStalledSessionWithholdsReplies(t *testing.T) {
	env, net := fastWorld(t)
	plan := faults.New(7).
		SetEndpoints(faults.EndpointProfile{StallFor: time.Hour}).
		AddStall(faults.StallWindow{Device: "sb", End: time.Hour})
	net.SetFaults(plan)
	addStatic(t, env, "sa", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "sb", geo.Pt(5, 0), radio.Bluetooth)
	client, server := dialPair(t, net, "sa", "sb", radio.Bluetooth, "svc")
	defer client.Abort()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Client -> server flows: the sick device still accepts input.
	if err := client.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(ctx); err != nil {
		t.Fatalf("request did not reach the stalled server: %v", err)
	}
	// Server -> client is withheld: the reply must not arrive within a
	// generous real-time budget (the stall is one modeled hour).
	if err := server.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	short, cancelShort := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancelShort()
	if msg, err := client.Recv(short); err == nil {
		t.Fatalf("stalled reply was delivered: %q", msg)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline waiting on stalled reply, got %v", err)
	}
	if client.Err() != nil || server.Err() != nil {
		t.Fatalf("stall must not reset the link: %v / %v", client.Err(), server.Err())
	}
	if plan.Counters().MessagesStalled == 0 {
		t.Fatal("withheld reply not counted")
	}
}

// A slow peer still delivers everything — the fate only inflates its
// service time.
func TestSlowPeerStillDelivers(t *testing.T) {
	env, net := fastWorld(t)
	plan := faults.New(11).SetEndpoints(faults.EndpointProfile{SlowRate: 1, SlowFactor: 4})
	net.SetFaults(plan)
	addStatic(t, env, "la", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "lb", geo.Pt(5, 0), radio.Bluetooth)
	client, server := dialPair(t, net, "la", "lb", radio.Bluetooth, "svc")
	defer client.Abort()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if err := client.Send([]byte("tick")); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if plan.Counters().SlowTransfers == 0 {
		t.Fatal("slow transfers not counted")
	}
}

// A crash window severs the device's links and refuses new dials; the
// restart (window end, or plan removal) lets dials succeed again.
func TestCrashWindowKillsLinksAndDials(t *testing.T) {
	env, net := fastWorld(t)
	addStatic(t, env, "ca", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "cb", geo.Pt(5, 0), radio.Bluetooth)
	client, _ := dialPair(t, net, "ca", "cb", radio.Bluetooth, "svc")

	plan := faults.New(13).AddCrash(faults.CrashWindow{Device: "cb", End: time.Hour})
	net.SetFaults(plan)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The shared sweeper must kill the established connection.
	if _, err := client.Recv(ctx); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("conn to crashed device: want ErrLinkLost, got %v", err)
	}
	// New dials are refused while the device is down.
	if _, err := net.Dial(ctx, "ca", "cb", radio.Bluetooth, "svc"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial to crashed device: want ErrUnreachable, got %v", err)
	}
	if plan.Counters().CrashDenials == 0 {
		t.Fatal("crash denials not counted")
	}
	// Restart: lifting the plan brings the device back.
	net.SetFaults(nil)
	c2, err := net.Dial(ctx, "ca", "cb", radio.Bluetooth, "svc")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c2.Abort()
}

// SendDeadline frees a writer whose peer has stopped reading: once both
// directions' buffers are full, the deadline fires instead of blocking
// forever, and the connection stays usable for the reader side.
func TestSendDeadlineOnNeverReadingPeer(t *testing.T) {
	env, net := fastWorld(t)
	addStatic(t, env, "wa", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "wb", geo.Pt(5, 0), radio.Bluetooth)
	writer, _ := dialPair(t, net, "wa", "wb", radio.Bluetooth, "svc")
	defer writer.Abort()

	// Fill the writer's transmit queue and the peer's receive queue. The
	// peer never reads, so at most 2*sendQueueLen+1 messages fit.
	timedOut := false
	for i := 0; i < 3*sendQueueLen; i++ {
		err := writer.SendDeadline([]byte("x"), time.Minute)
		if err != nil {
			if !errors.Is(err, ErrSendTimeout) {
				t.Fatalf("send %d: want ErrSendTimeout, got %v", i, err)
			}
			timedOut = true
			break
		}
	}
	if !timedOut {
		t.Fatal("SendDeadline never fired against a never-reading peer")
	}
	// The connection is not dead — the deadline sheds the write without
	// resetting the link.
	if !writer.Alive() {
		t.Fatal("send deadline must not kill the connection")
	}
}
