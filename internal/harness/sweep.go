package harness

import (
	"context"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// This file is the one sweep kernel under the engine-scale, gossip and
// DTN experiments. A sweep builds its world's environment, scheduler
// and network once, then runs barrier rounds: every device's driver
// runs one round, and the next round starts after the last one ended.
// On the discrete-event engine a round seeds one driver event per
// device, in device order, and sched.Run() drains the cascades; the
// drain is the barrier, so the sweep is a pure event workload whose
// every figure but wall time is a function of the seed, at any shard
// and worker count. On the goroutine engine one pool makes the blocking
// calls. What an experiment does between rounds (convergence checks,
// courier tours, delivery scans) is plain code.

// Engine selects the transport engine an experiment runs on.
type Engine struct {
	// DES selects the discrete-event engine; Shards and Workers, when
	// > 0, override its shard and executor counts (scenario.NewTransport
	// holds the defaults).
	DES     bool
	Shards  int
	Workers int
}

// name labels the engine in result rows.
func (e Engine) name() string {
	if e.DES {
		return "des"
	}
	return "goroutine"
}

// build puts a deployment on the engine; on the discrete-event engine
// it runs in integrated mode (scenario.Builder.WithDES).
func (e Engine) build(b *scenario.Builder) {
	if e.DES {
		b.WithDES(e.Shards).WithDESWorkers(e.Workers)
	}
}

// sweepPool bounds the goroutine engine's concurrent blocking rounds.
const sweepPool = 2048

// driver is one device's round: Round runs it with blocking calls, and
// RoundEvent, from inside an event, runs it as a cascade and calls then
// inside the event that ends it.
type driver interface {
	Round(ctx context.Context)
	RoundEvent(ctx *des.Ctx, then func(*des.Ctx))
}

// sweep is one experiment world's transport; sched is nil on the
// goroutine engine.
type sweep struct {
	env   *radio.Environment
	sched *des.Scheduler
	net   *netsim.Network
}

// newSweep builds the environment, the scheduler and the network; the
// caller places the devices and closes the network.
func newSweep(e Engine, seed int64, scale vtime.Scale) *sweep {
	env, sched, net := scenario.NewTransport(seed, scale, e.DES, e.Shards, e.Workers)
	return &sweep{env: env, sched: sched, net: net}
}

// round runs one barrier round in which drivers[i], devs[i]'s driver,
// starts after delay.
func (s *sweep) round(devs []ids.DeviceID, drivers []driver, delay time.Duration) {
	if s.sched != nil {
		for i, d := range drivers {
			s.sched.At(delay, netsim.DeviceHome(devs[i]), func(ctx *des.Ctx) { d.RoundEvent(ctx, func(*des.Ctx) {}) })
		}
		s.sched.Run()
		return
	}
	ctx := context.Background()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(sweepPool, len(drivers)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if delay > 0 {
					s.env.Clock().Sleep(delay)
				}
				drivers[i].Round(ctx)
			}
		}()
	}
	for i := range drivers {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
