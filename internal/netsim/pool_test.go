package netsim_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file pins the conn-pair pool (conn.go): dial/close churn
// dominated the allocation profile of the large discovery sweeps, so a
// steady-state dial + request/reply + close cycle must not reallocate
// the pair or its queues. The ceilings below have slack for the
// per-cycle incidentals (fresh closed channels, payload copies, timer
// and event bookkeeping) but sit under the cost of one unpooled pair,
// several allocations on top of a pooled cycle. A goroutine-engine
// pair's four channel queues hold ~24 KB of buffer; a DES pair's
// receive queues are slices that grow with use, so a fresh one costs
// ~2 KB, dial included.

// poolCeilingAllocs bounds average allocations per cycle on the
// goroutine engine (measured 29).
const poolCeilingAllocs = 60

// desPoolCeilingAllocs bounds average allocations per cycle on the
// event engine (measured 32).
const desPoolCeilingAllocs = 40

// pairFootprintCeiling bounds the bytes one fresh DES pair allocates,
// dial included (measured 2 018; channel receive queues made it ~15 KB).
const pairFootprintCeiling = 4096

// buildPoolWorld places two devices in Bluetooth range and starts a
// serial echo server on one of them.
func buildPoolWorld(t *testing.T, useDES bool) (*netsim.Network, func()) {
	t.Helper()
	opts := []radio.Option{radio.WithScale(vtime.NewScale(1e-6))}
	var sched *des.Scheduler
	if useDES {
		sched = des.NewScheduler(1, 2)
		opts = append(opts, radio.WithClock(sched.Clock()))
	}
	env := radio.NewEnvironment(opts...)
	for _, dev := range []string{"pool-a", "pool-b"} {
		if err := env.Add(ids.DeviceID(dev), mobility.Static{At: geo.Pt(1, 1)}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	var net *netsim.Network
	stop := func() {}
	if useDES {
		net = netsim.NewDES(env, 1, sched)
		sched.Start()
		stop = sched.Stop
	} else {
		net = netsim.New(env, 1)
	}
	l, err := net.Listen(ids.DeviceID("pool-b"), "echo")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	go func() {
		for {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			if msg, err := c.Recv(ctx); err == nil {
				_ = c.Send(msg)
			}
			_ = c.Close()
		}
	}()
	cleanup := func() {
		net.Close()
		stop()
	}
	return net, cleanup
}

// TestConnPairAllocsPinned measures a full dial + request/reply +
// close cycle on both engines: once the pool is warm, the per-cycle
// allocation count must stay under the pooled ceiling.
func TestConnPairAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync event; the pin only means anything uninstrumented")
	}
	for _, useDES := range []bool{false, true} {
		name := "goroutine"
		if useDES {
			name = "des"
		}
		t.Run(name, func(t *testing.T) {
			net, cleanup := buildPoolWorld(t, useDES)
			defer cleanup()
			ctx := context.Background()
			cycle := func() {
				c, err := net.Dial(ctx, ids.DeviceID("pool-a"), ids.DeviceID("pool-b"), radio.Bluetooth, "echo")
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				if err := c.Send([]byte("ping")); err != nil {
					t.Fatalf("send: %v", err)
				}
				if _, err := c.Recv(ctx); err != nil {
					t.Fatalf("recv: %v", err)
				}
				_ = c.Close()
			}
			// Warm the pool (and let the first pair's pumps retire).
			for i := 0; i < 32; i++ {
				cycle()
			}
			ceiling := poolCeilingAllocs
			if useDES {
				ceiling = desPoolCeilingAllocs
			}
			avg := testing.AllocsPerRun(200, cycle)
			if avg > float64(ceiling) {
				t.Fatalf("dial cycle allocates %.1f objects on average, ceiling %d: conn-pair pooling regressed", avg, ceiling)
			}
			t.Logf("%s: %.1f allocs per dial cycle", name, avg)
		})
	}
}

// TestConnPairFootprintPinned pins the bytes a fresh event-engine pair
// allocates, dial included: a pair the pool cannot supply must stay a
// few small allocations. DES ends queue delivered messages in a slice
// that grows with use; a channel-buffered receive queue would put
// sendQueueLen slice headers (6 KB) on every end up front.
func TestConnPairFootprintPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync event; the pin only means anything uninstrumented")
	}
	sched := des.NewScheduler(1, 2)
	sched.SetWorkers(1)
	env := radio.NewEnvironment(radio.WithClock(sched.Clock()))
	for _, dev := range []string{"pool-a", "pool-b"} {
		if err := env.Add(ids.DeviceID(dev), mobility.Static{At: geo.Pt(1, 1)}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	net := netsim.NewDES(env, 1, sched)
	defer net.Close()
	l, err := net.Listen(ids.DeviceID("pool-b"), "hold")
	if err != nil {
		t.Fatal(err)
	}
	// Both ends of every pair stay open, so each dial needs a fresh pair.
	var held []*netsim.Conn
	l.AcceptEvent(func(ctx *des.Ctx, c *netsim.Conn) { held = append(held, c) })
	setup := env.PHY(radio.Bluetooth).ConnectSetup
	horizon := time.Duration(0)
	dial := func(n int) {
		for i := 0; i < n; i++ {
			sched.At(0, 1, func(ctx *des.Ctx) {
				net.DialEvent(ctx, ids.DeviceID("pool-a"), ids.DeviceID("pool-b"), radio.Bluetooth, "hold", func(ctx *des.Ctx, c *netsim.Conn, err error) {
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					held = append(held, c)
				})
			})
		}
		horizon += 2 * setup
		sched.RunUntil(horizon)
	}
	dial(16) // warm the network's maps and the sweep
	const pairs = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dial(pairs)
	runtime.ReadMemStats(&after)
	if len(held) != 2*(16+pairs) {
		t.Fatalf("%d ends held, want %d", len(held), 2*(16+pairs))
	}
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs
	if perPair > pairFootprintCeiling {
		t.Fatalf("a fresh DES pair allocates %.0f B (dial included), ceiling %d B: receive queues went back to preallocated buffers?", perPair, pairFootprintCeiling)
	}
	t.Logf("%.0f B per fresh DES pair, dial included", perPair)
}
