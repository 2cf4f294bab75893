package netsim

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// TestStress1kDevicesConcurrentOps is the deterministic scale stress
// test: a fixed-seed 1000-device world where workers concurrently dial,
// send, move devices and power them off while the shared link sweep
// runs. Wall time is bounded by a fixed operation budget and a context
// deadline; the package leak checker (TestMain) gates teardown. The
// point is not throughput but that the O(1)-watchdog substrate survives
// every mutation the API offers happening at once under -race.
func TestStress1kDevicesConcurrentOps(t *testing.T) {
	const (
		devices      = 1000
		listenerDevs = 32
		workers      = 64
		opsPerWorker = 12
	)
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-4)))
	net := New(env, 4242)
	defer net.Close()

	// WLAN over a 200 m square: most, but not all, pairs are in range.
	world := rand.New(rand.NewSource(7))
	devs := make([]ids.DeviceID, devices)
	for i := range devs {
		devs[i] = ids.DeviceIDf("n%04d", i)
		at := geo.Pt(world.Float64()*200, world.Float64()*200)
		if err := env.Add(devs[i], mobility.Static{At: at}, radio.WLAN); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Echo servers on the first listenerDevs devices.
	for i := 0; i < listenerDevs; i++ {
		l, err := net.Listen(devs[i], "echo")
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
					defer c.Abort()
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

	var echoed, broadcasts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for op := 0; op < opsPerWorker; op++ {
				switch rng.Intn(5) {
				case 0, 1: // dial a listener and echo a couple of messages
					from := devs[listenerDevs+rng.Intn(devices-listenerDevs)]
					to := devs[rng.Intn(listenerDevs)]
					conn, err := net.Dial(ctx, from, to, radio.WLAN, "echo")
					if err != nil {
						continue // out of range or peer powered off: expected
					}
					for k := 0; k < 1+rng.Intn(3); k++ {
						if err := conn.Send([]byte{byte(w), byte(op), byte(k)}); err != nil {
							break
						}
						if _, err := conn.Recv(ctx); err != nil {
							break
						}
						echoed.Add(1)
					}
					conn.Abort()
				case 2: // power a non-listener device off and back on
					id := devs[listenerDevs+rng.Intn(devices-listenerDevs)]
					if err := env.SetPowered(id, false); err != nil {
						t.Error(err)
					}
					if err := env.SetPowered(id, true); err != nil {
						t.Error(err)
					}
				case 3: // move a device
					id := devs[rng.Intn(devices)]
					at := geo.Pt(rng.Float64()*200, rng.Float64()*200)
					if err := env.SetModel(id, mobility.Static{At: at}); err != nil {
						t.Error(err)
					}
				default: // broadcast a discovery probe
					from := devs[rng.Intn(devices)]
					if _, err := net.SendBroadcast(from, radio.WLAN, "disc", []byte("probe")); err != nil &&
						!errors.Is(err, ErrNetworkClosed) {
						t.Error(err)
					}
					broadcasts.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatalf("stress run hit the deadline: %v", ctx.Err())
	}
	if echoed.Load() == 0 {
		t.Fatal("no echo round trip ever succeeded across the whole stress run")
	}
	if got := armedSweepers(net); got > 1 {
		t.Fatalf("armed sweepers after stress = %d, want <= 1", got)
	}
}
