package peerhood

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// newDESWorld is newWorld on the discrete-event engine at the default
// scale (1e-3). Nobody starts the scheduler: every blocking call here is
// a cascade its caller awaits, so virtual time moves only with it.
func newDESWorld(t *testing.T) (*world, *des.Scheduler) {
	t.Helper()
	sched := des.NewScheduler(1, 2)
	env := radio.NewEnvironment(radio.WithScale(vtime.DefaultScale()), radio.WithClock(sched.Clock()))
	net := netsim.NewDES(env, 1, sched)
	t.Cleanup(net.Close)
	return &world{env: env, net: net}, sched
}

// echoServed registers an echo service answered as events: every
// request gets "ok:<request>" back.
func echoServed(t *testing.T, d *Daemon, name ids.ServiceName) {
	t.Helper()
	l, err := d.RegisterService(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	var echo netsim.ServeStep
	echo = func(_ ids.DeviceID, req []byte) ([]byte, netsim.ServeStep) {
		return append([]byte("ok:"), req...), echo
	}
	svc := l.Serve(echo)
	t.Cleanup(svc.Stop)
}

// TestRobustDESDeadlineHasNoFloor: on the DES the call deadline is the
// modeled one, scaled as is. A call on a stalled session ends in
// ErrCallTimeout after 30 ms of virtual time (30 s modeled at 1e-3),
// not after the 2 s floor the goroutine engine keeps against host
// jitter.
func TestRobustDESDeadlineHasNoFloor(t *testing.T) {
	w, sched := newDESWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth)
	da := w.daemon(t, "a")
	echoServed(t, w.daemon(t, "b"), "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if resp, err := rc.Call(ctx, []byte("warm")); err != nil || string(resp) != "ok:warm" {
		t.Fatalf("healthy call = %q, %v", resp, err)
	}
	// Every session stalls from here on, the cached one included.
	w.net.SetFaults(faults.New(1).SetEndpoints(faults.EndpointProfile{StallRate: 1, StallFor: time.Hour}))
	start := sched.Now()
	_, err = rc.Call(ctx, []byte("stalled"))
	took := sched.Now().Sub(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call on a stalled session = %v, want ErrCallTimeout", err)
	}
	want := vtime.DefaultScale().ToReal(DefaultRobustOptions().CallTimeout)
	if d := took - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("stalled call ended after %v of virtual time, want %v ± 1ms", took, want)
	}
}

// TestRobustDESFailsOverBluetoothToWLAN is Table 3's seamless
// connectivity on the DES: the Bluetooth link dies under a call, which
// re-dials over the next technology in the daemon's plugin order.
func TestRobustDESFailsOverBluetoothToWLAN(t *testing.T) {
	w, _ := newDESWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth, radio.WLAN)
	da := w.daemon(t, "a")
	echoServed(t, w.daemon(t, "b"), "echo")
	ctx := testCtx(t)
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Technology() != radio.Bluetooth {
		t.Fatalf("initial technology = %v, want bluetooth", rc.Technology())
	}
	// b leaves Bluetooth range (10 m) but stays in WLAN range (91 m).
	if err := w.env.SetModel("b", mobility.Static{At: geo.Pt(50, 0)}); err != nil {
		t.Fatal(err)
	}
	resp, err := rc.Call(ctx, []byte("two"))
	if err != nil || string(resp) != "ok:two" {
		t.Fatalf("call across the link loss = %q, %v", resp, err)
	}
	if rc.Technology() != radio.WLAN || rc.Failovers() != 1 {
		t.Fatalf("after the loss: technology %v, %d failovers; want wlan, 1", rc.Technology(), rc.Failovers())
	}
	if q := da.LinkQuality(); q.DialsAttempted != 2 || q.DialsFailed != 0 {
		t.Fatalf("link quality = %+v, want 2 dials (bluetooth, then wlan), none failed", q)
	}
	if got := da.Stats().ConnectsRouted; got != 2 {
		t.Fatalf("ConnectsRouted = %d, want 2", got)
	}
}

// TestRobustDESConcurrentCallsStayPaired: callers racing on one
// session under link resets each get their own reply, with the
// session's exchanges queued one at a time as events.
func TestRobustDESConcurrentCallsStayPaired(t *testing.T) {
	w, _ := newDESWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.Bluetooth, radio.WLAN)
	w.addStatic(t, "b", geo.Pt(5, 0), radio.Bluetooth, radio.WLAN)
	da := w.daemon(t, "a")
	echoServed(t, w.daemon(t, "b"), "echo")
	ctx := testCtx(t)
	w.net.SetFaults(faults.New(77).SetLink(faults.LinkProfile{Loss: 0.12, MaxRetransmits: 2}))
	rc, err := da.ConnectRobust(ctx, "b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const callers, perCaller = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var answered int
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
				mu.Lock()
				answered++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if answered == 0 {
		t.Fatal("no call was answered")
	}
}

// TestNewDaemonRefusesGPRSProxyOnDES: the operator proxy bridges
// blocking conns, which the DES's event-dialed sessions cannot cross,
// so a DES daemon refuses one.
func TestNewDaemonRefusesGPRSProxyOnDES(t *testing.T) {
	w, _ := newDESWorld(t)
	w.addStatic(t, "a", geo.Pt(0, 0), radio.GPRS)
	w.addStatic(t, "op", geo.Pt(5, 0), radio.GPRS)
	if _, err := NewDaemon(Config{Device: "a", Network: w.net, GPRSProxy: "op"}); err == nil {
		t.Fatal("NewDaemon accepted a GPRS proxy on a DES network")
	}
}
