package radio

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

// This file is the differential suite for Handle: over randomized
// worlds that interleave Add, Remove, re-Add, SetPowered, SetCoverage
// and SetModel, a handle's reachability answer must equal ReachableAt
// by ID and a brute-force pair check over a shadow copy of the world,
// for every technology. The handles are resolved once, up front —
// some for IDs not yet added, as a dial to a device that has not
// appeared yet resolves them — and read through every later Remove and
// re-Add.

// shadowDev is the test's own record of one device.
type shadowDev struct {
	present  bool
	model    mobility.Model
	radios   map[Technology]bool
	powered  bool
	coverage bool
}

// handleWorld is one randomized world with its shadow and handles.
type handleWorld struct {
	env     *Environment
	clk     *vtime.Manual
	rng     *rand.Rand
	area    float64
	ids     []ids.DeviceID
	shadow  map[ids.DeviceID]*shadowDev
	handles map[ids.DeviceID]Handle
}

// checkTechs covers every technology plus the two out-of-range values
// a caller could pass.
var checkTechs = []Technology{TechNone, Bluetooth, WLAN, GPRS, Technology(-1), Technology(9)}

func newHandleWorld(t *testing.T, seed int64) *handleWorld {
	rng := rand.New(rand.NewSource(seed))
	clk := vtime.NewManual(time.Unix(0, 0))
	w := &handleWorld{
		env:     NewEnvironment(WithClock(clk)),
		clk:     clk,
		rng:     rng,
		area:    10 + rng.Float64()*120,
		shadow:  make(map[ids.DeviceID]*shadowDev),
		handles: make(map[ids.DeviceID]Handle),
	}
	n := 3 + rng.Intn(14)
	for i := 0; i < n; i++ {
		id := ids.DeviceID(fmt.Sprintf("dev-%02d", i))
		w.ids = append(w.ids, id)
		w.shadow[id] = &shadowDev{}
		if rng.Intn(3) > 0 {
			w.add(t, id)
		}
	}
	for _, id := range w.ids {
		w.handles[id] = w.env.Resolve(id)
	}
	return w
}

// add places id with a random loadout, in the world and the shadow.
func (w *handleWorld) add(t *testing.T, id ids.DeviceID) {
	t.Helper()
	techs := techSets[w.rng.Intn(len(techSets))]
	model := randomModel(w.rng, w.area)
	err := w.env.Add(id, model, techs...)
	s := w.shadow[id]
	if s.present {
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("Add(%s) of a present device: %v, want ErrDuplicateID", id, err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	*s = shadowDev{present: true, model: model, radios: make(map[Technology]bool), powered: true, coverage: true}
	for _, tech := range techs {
		s.radios[tech] = true
	}
}

// mutate applies one random mutation to the world and the shadow.
func (w *handleWorld) mutate(t *testing.T) {
	t.Helper()
	id := w.ids[w.rng.Intn(len(w.ids))]
	s := w.shadow[id]
	var err error
	switch w.rng.Intn(7) {
	case 0:
		w.add(t, id)
		return
	case 1:
		w.env.Remove(id)
		s.present = false
		return
	case 2: // re-Add: remove and add back with a fresh loadout
		w.env.Remove(id)
		s.present = false
		w.add(t, id)
		return
	case 3:
		on := w.rng.Intn(2) == 0
		err = w.env.SetPowered(id, on)
		if s.present {
			s.powered = on
		}
	case 4:
		covered := w.rng.Intn(2) == 0
		err = w.env.SetCoverage(id, covered)
		if s.present {
			s.coverage = covered
		}
	case 5:
		model := randomModel(w.rng, w.area)
		err = w.env.SetModel(id, model)
		if s.present {
			s.model = model
		}
	default:
		w.clk.Advance(time.Duration(w.rng.Intn(5000)) * time.Millisecond)
		return
	}
	if s.present != (err == nil) || (err != nil && !errors.Is(err, ErrUnknownDevice)) {
		t.Fatalf("mutating %s (present %v): %v", id, s.present, err)
	}
}

// bruteReachable is the pair check over the shadow world.
func (w *handleWorld) bruteReachable(a, b ids.DeviceID, tech Technology, elapsed time.Duration) bool {
	sa, sb := w.shadow[a], w.shadow[b]
	if a == b || !tech.Valid() || !sa.present || !sb.present {
		return false
	}
	if !sa.powered || !sb.powered || !sa.radios[tech] || !sb.radios[tech] {
		return false
	}
	phy := DefaultPHY(tech)
	if phy.Unlimited() {
		return sa.coverage && sb.coverage
	}
	return sa.model.Position(elapsed).DistanceTo(sb.model.Position(elapsed)) <= phy.Range
}

// check compares the three answers for every ordered pair and
// technology, through the up-front handles and through fresh ones.
func (w *handleWorld) check(t *testing.T, seed int64, step int) (reachable int) {
	t.Helper()
	elapsed := w.env.Elapsed()
	for _, a := range w.ids {
		fresh := w.env.Resolve(a)
		for _, b := range w.ids {
			for _, tech := range checkTechs {
				want := w.bruteReachable(a, b, tech, elapsed)
				byID := w.env.ReachableAt(a, b, tech, elapsed)
				byHandle := w.handles[a].ReachableAt(w.handles[b], tech, elapsed)
				byFresh := fresh.ReachableAt(w.env.Resolve(b), tech, elapsed)
				if byID != want || byHandle != want || byFresh != want {
					t.Fatalf("seed %d step %d: %s -> %s over %v: brute force %v, by ID %v, by handle %v, by fresh handle %v",
						seed, step, a, b, tech, want, byID, byHandle, byFresh)
				}
				if want {
					reachable++
				}
			}
		}
	}
	return reachable
}

// TestHandleMatchesLookupAndBruteForce runs the differential over
// seeded worlds and mutation sequences.
func TestHandleMatchesLookupAndBruteForce(t *testing.T) {
	worlds, steps := 150, 40
	if testing.Short() {
		worlds = 30
	}
	reachable, readds := 0, 0
	for seed := int64(1); seed <= int64(worlds); seed++ {
		w := newHandleWorld(t, seed)
		for step := 0; step < steps; step++ {
			before := make(map[ids.DeviceID]bool, len(w.ids))
			for _, id := range w.ids {
				before[id] = w.shadow[id].present
			}
			w.mutate(t)
			for _, id := range w.ids {
				if !before[id] && w.shadow[id].present {
					readds++
				}
			}
			reachable += w.check(t, seed, step)
		}
	}
	if reachable == 0 || readds == 0 {
		t.Fatalf("suite never saw a reachable pair (%d) or a device (re-)added after its handle (%d)", reachable, readds)
	}
}

// TestHandleFollowsIDThroughRemoveAndReAdd pins the two handle
// lifetimes the transport relies on: a handle resolved before its ID
// is ever added, and one resolved before a Remove and read after the
// ID is re-added somewhere else.
func TestHandleFollowsIDThroughRemoveAndReAdd(t *testing.T) {
	env := NewEnvironment()
	early := env.Resolve("late")
	if err := env.Add("anchor", mobility.Static{}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	anchor := env.Resolve("anchor")
	if early.ReachableAt(anchor, Bluetooth, 0) {
		t.Fatal("a handle for an ID never added is reachable")
	}
	if err := env.Add("late", mobility.Static{}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if !early.ReachableAt(anchor, Bluetooth, 0) || !anchor.ReachableAt(early, Bluetooth, 0) {
		t.Fatal("a handle resolved before its ID was added does not see the device")
	}
	env.Remove("late")
	if early.ReachableAt(anchor, Bluetooth, 0) || env.Has("late") {
		t.Fatal("a removed device stays reachable through its handle")
	}
	far := DefaultPHY(Bluetooth).Range * 3
	if err := env.Add("late", mobility.Static{At: geo.Pt(far, 0)}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if early.ReachableAt(anchor, Bluetooth, 0) {
		t.Fatal("a handle reads the device's state from before it was re-added")
	}
	if (Handle{}).ReachableAt(anchor, Bluetooth, 0) || anchor.ReachableAt(Handle{}, Bluetooth, 0) {
		t.Fatal("the zero Handle is reachable")
	}
}
