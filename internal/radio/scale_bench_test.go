package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
)

// BenchmarkRadioScale measures the radio read path as the world grows
// from 1k to 100k devices, at the density of perfbench's discovery
// workload (static devices, ~50 m² each, Bluetooth): one link check by
// ID and by handle, and one epoch-pinned NeighborsAt. Queries visit
// devices in a random order, as a sweep's events do, so a layout whose
// lookups miss the cache more often as the world grows shows up as a
// per-call cost that grows with n.
func BenchmarkRadioScale(b *testing.B) {
	for _, n := range []int{1000, 20000, 100000} {
		env, devs := scaleWorld(n)
		const epoch = 10 * time.Second
		// Link checks run over neighbor pairs, the links a transport
		// actually checks; queries over every device.
		rng := rand.New(rand.NewSource(int64(n)))
		type pair struct{ a, b ids.DeviceID }
		var pairs []pair
		for _, i := range rng.Perm(n) {
			if neigh := env.NeighborsAt(devs[i], Bluetooth, epoch); len(neigh) > 0 {
				pairs = append(pairs, pair{devs[i], neigh[rng.Intn(len(neigh))]})
			}
		}
		handles := make([][2]Handle, len(pairs))
		for i, p := range pairs {
			handles[i] = [2]Handle{env.Resolve(p.a), env.Resolve(p.b)}
		}
		order := rng.Perm(n)
		b.Run(fmt.Sprintf("reachable/by-id/devices=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if !env.ReachableAt(p.a, p.b, Bluetooth, epoch) {
					b.Fatal("neighbor pair unreachable")
				}
			}
		})
		b.Run(fmt.Sprintf("reachable/by-handle/devices=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := handles[i%len(handles)]
				if !h[0].ReachableAt(h[1], Bluetooth, epoch) {
					b.Fatal("neighbor pair unreachable")
				}
			}
		})
		b.Run(fmt.Sprintf("neighbors_at/devices=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.NeighborsAt(devs[order[i%n]], Bluetooth, epoch)
			}
		})
	}
}

// scaleWorld places n static Bluetooth devices uniformly over a square
// of ~50 m² per device.
func scaleWorld(n int) (*Environment, []ids.DeviceID) {
	env := NewEnvironment()
	rng := rand.New(rand.NewSource(1))
	side := math.Sqrt(float64(n) * 50)
	devs := make([]ids.DeviceID, n)
	for i := range devs {
		devs[i] = ids.DeviceIDf("dev-%06d", i)
		at := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		if err := env.Add(devs[i], mobility.Static{At: at}, Bluetooth); err != nil {
			panic(err)
		}
	}
	return env, devs
}
