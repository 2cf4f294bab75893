package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

// This file is the differential property suite for the spatial grid
// index: over seeded randomized worlds — mixed mobility models, mixed
// technologies, power and coverage toggles, device churn — the
// grid-indexed Neighbors path must return byte-identical results to the
// brute-force per-pair oracle at every queried epoch, and Reachable
// must agree with neighbor-list membership.

// diffWorld is one randomized world under a manual clock.
type diffWorld struct {
	env   *Environment
	clk   *vtime.Manual
	rng   *rand.Rand
	ids   []ids.DeviceID
	areaM float64
}

// techSets are the radio loadouts devices are drawn from, including
// partial ones so cross-technology visibility asymmetries are covered.
var techSets = [][]Technology{
	{Bluetooth},
	{WLAN},
	{GPRS},
	{Bluetooth, WLAN},
	{Bluetooth, GPRS},
	{WLAN, GPRS},
	{Bluetooth, WLAN, GPRS},
}

// randomModel draws one of the mobility models, seeded from the world's
// rng so the trajectory replays with the case seed.
func randomModel(rng *rand.Rand, area float64) mobility.Model {
	at := geo.Pt(rng.Float64()*area, rng.Float64()*area)
	switch rng.Intn(5) {
	case 0:
		return mobility.Static{At: at}
	case 1:
		return mobility.Linear{
			Start:    at,
			Velocity: geo.Vec(rng.Float64()*4-2, rng.Float64()*4-2),
		}
	case 2:
		region := geo.NewRect(geo.Pt(0, 0), geo.Pt(area, area))
		return mobility.NewRandomWaypoint(region, 0.5, 3, time.Second, rng.Int63())
	case 3:
		return mobility.Orbit{
			Center: at,
			Radius: 1 + rng.Float64()*30,
			Period: time.Duration(5+rng.Intn(60)) * time.Second,
			Phase:  rng.Float64() * 6.28,
		}
	default:
		pts := make([]geo.Point, 2+rng.Intn(4))
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*area, rng.Float64()*area)
		}
		return mobility.Waypoints{Points: pts, Speed: 0.5 + rng.Float64()*2}
	}
}

// newDiffWorld builds a seeded world: 4–40 devices over a 20–200 m
// square, each with a random loadout and mobility model.
func newDiffWorld(seed int64) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	clk := vtime.NewManual(time.Unix(0, 0))
	env := NewEnvironment(WithClock(clk))
	w := &diffWorld{
		env:   env,
		clk:   clk,
		rng:   rng,
		areaM: 20 + rng.Float64()*180,
	}
	n := 4 + rng.Intn(37)
	for i := 0; i < n; i++ {
		id := ids.DeviceID(fmt.Sprintf("dev-%03d", i))
		techs := techSets[rng.Intn(len(techSets))]
		if err := env.Add(id, randomModel(rng, w.areaM), techs...); err != nil {
			panic(err)
		}
		w.ids = append(w.ids, id)
	}
	return w
}

// mutate applies a random batch of world mutations: power toggles,
// coverage flips, model swaps, the odd removal and (re-)addition.
func (w *diffWorld) mutate(t *testing.T) {
	t.Helper()
	for i := 0; i < 1+w.rng.Intn(4); i++ {
		id := w.ids[w.rng.Intn(len(w.ids))]
		switch w.rng.Intn(6) {
		case 0:
			if err := w.env.SetPowered(id, false); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := w.env.SetPowered(id, true); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := w.env.SetCoverage(id, w.rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := w.env.SetModel(id, randomModel(w.rng, w.areaM)); err != nil {
				t.Fatal(err)
			}
		case 4:
			w.env.Remove(id)
			// Re-add under the same ID with a fresh loadout so the
			// device set stays stable for the query loop.
			techs := techSets[w.rng.Intn(len(techSets))]
			if err := w.env.Add(id, randomModel(w.rng, w.areaM), techs...); err != nil {
				t.Fatal(err)
			}
		default:
			// No mutation this draw: some steps only move time.
		}
	}
}

// checkEpoch asserts, for every device and technology, that the grid
// and brute paths agree exactly at the current epoch, and that
// Reachable matches neighbor-list membership for sampled pairs.
func (w *diffWorld) checkEpoch(t *testing.T, seed int64, step int) {
	t.Helper()
	for _, tech := range AllTechnologies() {
		for _, id := range w.ids {
			got := w.env.Neighbors(id, tech)
			want := w.env.NeighborsBrute(id, tech)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Neighbors(%s, %v) grid %v != brute %v",
					seed, step, id, tech, got, want)
			}
		}
		// Reachable must agree with membership in the grid result.
		a := w.ids[w.rng.Intn(len(w.ids))]
		members := make(map[ids.DeviceID]bool)
		for _, m := range w.env.Neighbors(a, tech) {
			members[m] = true
		}
		for _, b := range w.ids {
			if a == b {
				continue
			}
			if w.env.Reachable(a, b, tech) != members[b] {
				t.Fatalf("seed %d step %d: Reachable(%s, %s, %v) = %v disagrees with Neighbors membership",
					seed, step, a, b, tech, !members[b])
			}
		}
	}
}

// TestGridMatchesBruteForceOracle runs the differential property over
// ≥1000 seeded (world, time-step) cases.
func TestGridMatchesBruteForceOracle(t *testing.T) {
	worlds, steps := 125, 8 // 1000 cases
	if testing.Short() {
		worlds = 25
	}
	for seed := int64(0); seed < int64(worlds); seed++ {
		w := newDiffWorld(seed)
		for step := 0; step < steps; step++ {
			w.checkEpoch(t, seed, step)
			w.mutate(t)
			// Advance by an uneven delta so epochs land between, on and
			// across mobility-leg boundaries.
			w.clk.Advance(time.Duration(1+w.rng.Intn(20000)) * time.Millisecond)
		}
	}
}

// TestGridBoundaryExactRange pins the range boundary: a device at
// exactly PHY range is a neighbor on both paths, one epsilon beyond is
// not on either.
func TestGridBoundaryExactRange(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	env := NewEnvironment(WithClock(clk))
	r := env.PHY(Bluetooth).Range
	mustAdd := func(id ids.DeviceID, at geo.Point) {
		t.Helper()
		if err := env.Add(id, mobility.Static{At: at}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("center", geo.Pt(0, 0))
	mustAdd("at-range", geo.Pt(r, 0))
	mustAdd("beyond", geo.Pt(r+1e-9, 0))
	mustAdd("diagonal", geo.Pt(r/2, r/2)) // inside on the diagonal, in a neighboring cell
	mustAdd("negative", geo.Pt(-r, 0))    // exactly at range across the cell-0 boundary

	got := env.Neighbors("center", Bluetooth)
	want := env.NeighborsBrute("center", Bluetooth)
	if !slices.Equal(got, want) {
		t.Fatalf("grid %v != brute %v", got, want)
	}
	wantSet := []ids.DeviceID{"at-range", "diagonal", "negative"}
	if !slices.Equal(got, wantSet) {
		t.Fatalf("Neighbors = %v, want %v", got, wantSet)
	}
}

// TestGridSnapshotInvalidatedByMutation verifies the epoch cache can
// never serve stale state: a power toggle between two queries at the
// same modeled instant must be visible to the second query.
func TestGridSnapshotInvalidatedByMutation(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	env := NewEnvironment(WithClock(clk))
	for _, id := range []ids.DeviceID{"a", "b"} {
		if err := env.Add(id, mobility.Static{At: geo.Pt(0, 0)}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.Neighbors("a", Bluetooth); len(got) != 1 {
		t.Fatalf("Neighbors = %v, want [b]", got)
	}
	if err := env.SetPowered("b", false); err != nil {
		t.Fatal(err)
	}
	if got := env.Neighbors("a", Bluetooth); len(got) != 0 {
		t.Fatalf("Neighbors after power-off = %v, want empty (stale snapshot served)", got)
	}
}
