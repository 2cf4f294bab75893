package peerhood

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// echoService runs a trivial request/response server on a daemon: for
// every accepted connection it answers each message with "ok:<msg>".
func echoService(t *testing.T, d *Daemon, name ids.ServiceName) {
	t.Helper()
	listener, err := d.RegisterService(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		for {
			conn, err := listener.Accept(ctx)
			if err != nil {
				return
			}
			go func(c *netsim.Conn) {
				defer c.Close()
				for {
					msg, err := c.Recv(ctx)
					if err != nil {
						return
					}
					if err := c.Send(append([]byte("ok:"), msg...)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
}

// TestTable3_SeamlessConnectivity: "When PeerHood senses the breaking
// or weakening of the established connection, it tries to find the
// best possible alternative for that breaking connection." Here the
// Bluetooth link dies (peer leaves BT range but stays in WLAN range)
// and the robust connection fails over to WLAN.
func TestTable3_SeamlessConnectivity(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth, radio.WLAN)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)
	if err := da.RefreshNow(ctx); err != nil {
		t.Fatal(err)
	}

	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Technology() != radio.Bluetooth {
		t.Fatalf("initial technology = %v, want bluetooth (preference order)", rc.Technology())
	}
	resp, err := rc.Call(ctx, []byte("one"))
	if err != nil || string(resp) != "ok:one" {
		t.Fatalf("Call = %q, %v", resp, err)
	}

	// Break Bluetooth only: move b to 50 m — outside BT (10 m), inside
	// WLAN (91 m).
	if err := w.env.SetModel("b", mobility.Static{At: geo.Pt(50, 0)}); err != nil {
		t.Fatal(err)
	}
	// Wait for the link watchdog to kill the BT conn.
	deadline := time.Now().Add(5 * time.Second)
	for rc.Failovers() == 0 && time.Now().Before(deadline) {
		resp, err := rc.Call(ctx, []byte("two"))
		if err == nil && string(resp) == "ok:two" && rc.Technology() == radio.WLAN {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rc.Technology() != radio.WLAN {
		t.Fatalf("technology after failover = %v, want wlan", rc.Technology())
	}
	if rc.Failovers() == 0 {
		t.Fatal("no failover recorded")
	}
	resp, err = rc.Call(ctx, []byte("three"))
	if err != nil || string(resp) != "ok:three" {
		t.Fatalf("Call after failover = %q, %v", resp, err)
	}
}

func TestRobustConnCloseStopsUse(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := rc.Call(ctx, []byte("x")); err == nil {
		t.Fatal("Call after Close should fail")
	}
}

func TestRobustConnFailsWhenPeerGoneEverywhere(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := w.env.SetPowered("b", false); err != nil {
		t.Fatal(err)
	}
	// Every path is gone; Call must eventually error rather than hang.
	callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := rc.Call(callCtx, []byte("x")); err != nil {
			return // expected failure
		}
	}
	t.Fatal("Call kept succeeding with peer powered off")
}

// Concurrent Calls on one RobustConn must never pair a request with
// another caller's response, even while link faults force failovers
// mid-storm. Exchange serialization plus the per-conn fault plan makes
// every reply either match its request or fail cleanly.
func TestRobustConcurrentCallsStayPaired(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth, radio.WLAN)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)

	// A loss plan with a shallow retransmission budget forces periodic
	// ErrLinkLost resets, so the storm exercises failover re-dials too.
	w.net.SetFaults(faults.New(77).SetLink(faults.LinkProfile{
		Loss:           0.12,
		MaxRetransmits: 2,
	}))

	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const callers, perCaller = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := rc.Call(ctx, []byte(req))
				if err != nil {
					continue // faults may exhaust the retry budget; mismatches are the bug
				}
				if string(resp) != "ok:"+req {
					errs <- fmt.Errorf("call %s got response %q", req, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A call that ends in time leaves no timer behind: its deadline is a
// clock callback the call's end stops, not a goroutine parked on a
// timer until the timer fires. The world runs on a manual clock that
// never advances, at a scale that rounds every modeled delay to zero,
// so nothing sleeps and the clock's pending timers are the link
// sweeper's and whatever the calls leave.
func TestRobustCallLeavesNoTimer(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-12)), radio.WithClock(clk))
	w := &world{env: env, net: netsim.New(env, 1)}
	t.Cleanup(w.net.Close)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth)
	da := w.daemon(t, "a")
	echoService(t, w.daemon(t, "b"), "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// The dial started the link sweeper; let it park on its timer.
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the link sweeper never parked on the clock")
		}
	}
	before := clk.Waiters()
	for i := 0; i < 50; i++ {
		req := fmt.Sprintf("call-%d", i)
		if resp, err := rc.Call(ctx, []byte(req)); err != nil || string(resp) != "ok:"+req {
			t.Fatalf("call %d: got %q, err %v", i, resp, err)
		}
	}
	// A goroutine a call started could arm its timer after the call
	// returned: give any such goroutine time to run before counting.
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline) && clk.Waiters() == before; {
		time.Sleep(time.Millisecond)
	}
	if after := clk.Waiters(); after != before {
		t.Errorf("50 calls took the clock from %d pending timers to %d, want no change", before, after)
	}
}

// TestRobustConnUpgradesBackToBluetooth: after failing over to WLAN,
// the connection returns to Bluetooth once the peer is in range again.
func TestRobustConnUpgradesBackToBluetooth(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(50, 0), radio.Bluetooth, radio.WLAN) // WLAN only at 50 m
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)

	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Technology() != radio.WLAN {
		t.Fatalf("initial tech = %v, want wlan (out of BT range)", rc.Technology())
	}
	// No upgrade available yet.
	if rc.TryUpgrade(ctx) {
		t.Fatal("upgrade reported with Bluetooth unreachable")
	}
	// b walks back into Bluetooth range.
	if err := w.env.SetModel("b", mobility.Static{At: geo.Pt(5, 0)}); err != nil {
		t.Fatal(err)
	}
	if !rc.TryUpgrade(ctx) {
		t.Fatal("upgrade did not happen with Bluetooth reachable")
	}
	if rc.Technology() != radio.Bluetooth {
		t.Fatalf("tech after upgrade = %v, want bluetooth", rc.Technology())
	}
	// The conversation continues on the upgraded link.
	resp, err := rc.Call(ctx, []byte("post-upgrade"))
	if err != nil || string(resp) != "ok:post-upgrade" {
		t.Fatalf("Call after upgrade = %q, %v", resp, err)
	}
}

func TestTryUpgradeNoOpWhenAlreadyBest(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth, radio.WLAN)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Technology() != radio.Bluetooth {
		t.Fatalf("tech = %v", rc.Technology())
	}
	if rc.TryUpgrade(ctx) {
		t.Fatal("upgrade from Bluetooth should be a no-op")
	}
	if rc.Failovers() != 0 {
		t.Fatal("no-op upgrade bumped failover count")
	}
}

func TestTryUpgradeClosedConn(t *testing.T) {
	w := newWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth)
	da := w.daemon(t, "a")
	db := w.daemon(t, "b")
	echoService(t, db, "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if rc.TryUpgrade(ctx) {
		t.Fatal("upgrade on closed conn")
	}
}
