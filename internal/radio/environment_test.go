package radio

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

func staticWorld(t *testing.T) (*Environment, *vtime.Manual) {
	t.Helper()
	clk := vtime.NewManual(time.Unix(0, 0))
	env := NewEnvironment(WithClock(clk), WithScale(vtime.Identity()))
	return env, clk
}

func TestAddAndDevices(t *testing.T) {
	env, _ := staticWorld(t)
	if err := env.Add("b", mobility.Static{At: geo.Pt(0, 0)}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if err := env.Add("a", mobility.Static{At: geo.Pt(1, 0)}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	got := env.Devices()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Devices() = %v, want sorted [a b]", got)
	}
	if !env.Has("a") || env.Has("zz") {
		t.Fatal("Has() wrong")
	}
}

func TestAddErrors(t *testing.T) {
	env, _ := staticWorld(t)
	if err := env.Add("", nil, Bluetooth); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("empty ID err = %v, want ErrInvalidID", err)
	}
	if err := env.Add("x", nil, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if err := env.Add("x", nil, Bluetooth); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate err = %v, want ErrDuplicateID", err)
	}
	if err := env.Add("y", nil, Technology(99)); err == nil {
		t.Fatal("invalid technology accepted")
	}
}

func TestBluetoothRange(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "near", geo.Pt(0, 0), Bluetooth)
	mustAdd(t, env, "edge", geo.Pt(10, 0), Bluetooth)
	mustAdd(t, env, "far", geo.Pt(10.1, 0), Bluetooth)

	if !env.Reachable("near", "edge", Bluetooth) {
		t.Error("device at exactly 10 m should be reachable (class-2 range)")
	}
	if env.Reachable("near", "far", Bluetooth) {
		t.Error("device at 10.1 m should be out of Bluetooth range")
	}
	if env.Reachable("near", "near", Bluetooth) {
		t.Error("a device is never its own neighbor")
	}
}

func TestWLANRangeExceedsBluetooth(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), Bluetooth, WLAN)
	mustAdd(t, env, "b", geo.Pt(50, 0), Bluetooth, WLAN)
	if env.Reachable("a", "b", Bluetooth) {
		t.Error("50 m should exceed Bluetooth range")
	}
	if !env.Reachable("a", "b", WLAN) {
		t.Error("50 m should be inside WLAN range")
	}
}

func TestGPRSIgnoresDistanceButNeedsCoverage(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), GPRS)
	mustAdd(t, env, "b", geo.Pt(1e6, 0), GPRS)
	if !env.Reachable("a", "b", GPRS) {
		t.Fatal("GPRS should reach across any distance")
	}
	if err := env.SetCoverage("b", false); err != nil {
		t.Fatal(err)
	}
	if env.Reachable("a", "b", GPRS) {
		t.Fatal("GPRS should fail without coverage")
	}
}

func TestNoRadioNoReach(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "bt-only", geo.Pt(0, 0), Bluetooth)
	mustAdd(t, env, "wlan-only", geo.Pt(1, 0), WLAN)
	if env.Reachable("bt-only", "wlan-only", Bluetooth) {
		t.Error("peer without a Bluetooth radio must be unreachable over Bluetooth")
	}
	if env.Reachable("bt-only", "wlan-only", WLAN) {
		t.Error("peer without a WLAN radio must be unreachable over WLAN")
	}
}

func TestPowerOff(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), Bluetooth)
	mustAdd(t, env, "b", geo.Pt(1, 0), Bluetooth)
	if !env.Reachable("a", "b", Bluetooth) {
		t.Fatal("precondition: reachable")
	}
	if err := env.SetPowered("b", false); err != nil {
		t.Fatal(err)
	}
	if env.Reachable("a", "b", Bluetooth) {
		t.Error("powered-off device should be unreachable")
	}
	if got := env.Neighbors("b", Bluetooth); got != nil {
		t.Errorf("powered-off device sees neighbors: %v", got)
	}
	if err := env.SetPowered("b", true); err != nil {
		t.Fatal(err)
	}
	if !env.Reachable("a", "b", Bluetooth) {
		t.Error("power-on should restore reachability")
	}
}

func TestSetPoweredUnknown(t *testing.T) {
	env, _ := staticWorld(t)
	if err := env.SetPowered("ghost", false); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
	if err := env.SetCoverage("ghost", false); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
	if err := env.SetModel("ghost", nil); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestNeighborsSortedAndRangeLimited(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "center", geo.Pt(0, 0), Bluetooth)
	mustAdd(t, env, "n2", geo.Pt(3, 0), Bluetooth)
	mustAdd(t, env, "n1", geo.Pt(0, 4), Bluetooth)
	mustAdd(t, env, "far", geo.Pt(100, 100), Bluetooth)
	got := env.Neighbors("center", Bluetooth)
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("Neighbors = %v, want [n1 n2]", got)
	}
}

func TestReachabilitySymmetric(t *testing.T) {
	env, _ := staticWorld(t)
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(5, 5), geo.Pt(9, 0), geo.Pt(20, 20), geo.Pt(3, 8)}
	for i, p := range pts {
		mustAdd(t, env, ids.DeviceIDf("d%d", i), p, Bluetooth, WLAN)
	}
	devs := env.Devices()
	for _, a := range devs {
		for _, b := range devs {
			for _, tech := range []Technology{Bluetooth, WLAN} {
				if env.Reachable(a, b, tech) != env.Reachable(b, a, tech) {
					t.Fatalf("asymmetric reachability %v<->%v over %v", a, b, tech)
				}
			}
		}
	}
}

func TestMobilityMovesDevicesOutOfRange(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	env := NewEnvironment(WithClock(clk), WithScale(vtime.Identity()))
	mustAdd(t, env, "fixed", geo.Pt(0, 0), Bluetooth)
	// Walks away at 1 m/s along x.
	if err := env.Add("walker", mobility.Linear{Start: geo.Pt(5, 0), Velocity: geo.Vec(1, 0)}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if !env.Reachable("fixed", "walker", Bluetooth) {
		t.Fatal("walker should start in range at 5 m")
	}
	clk.Advance(10 * time.Second) // now at 15 m
	if env.Reachable("fixed", "walker", Bluetooth) {
		t.Fatal("walker should be out of range at 15 m")
	}
}

func TestScaleSpeedsUpMobility(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	// 1 modeled second per real millisecond.
	env := NewEnvironment(WithClock(clk), WithScale(vtime.DefaultScale()))
	if err := env.Add("walker", mobility.Linear{Start: geo.Pt(0, 0), Velocity: geo.Vec(1, 0)}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond) // 50 modeled seconds
	p, err := env.Position("walker")
	if err != nil {
		t.Fatal(err)
	}
	if p.X < 49.9 || p.X > 50.1 {
		t.Fatalf("walker at %v, want x≈50 after 50 modeled seconds", p)
	}
}

func TestSignal(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), Bluetooth, GPRS)
	mustAdd(t, env, "close", geo.Pt(1, 0), Bluetooth, GPRS)
	mustAdd(t, env, "mid", geo.Pt(5, 0), Bluetooth)
	mustAdd(t, env, "out", geo.Pt(11, 0), Bluetooth)

	if s := env.Signal("a", "close", Bluetooth); s < 0.85 {
		t.Errorf("close signal = %v, want >= 0.85", s)
	}
	sMid := env.Signal("a", "mid", Bluetooth)
	if sMid <= 0 || sMid >= env.Signal("a", "close", Bluetooth) {
		t.Errorf("mid signal = %v, want between 0 and close signal", sMid)
	}
	if s := env.Signal("a", "out", Bluetooth); s != 0 {
		t.Errorf("out-of-range signal = %v, want 0", s)
	}
	if s := env.Signal("a", "close", GPRS); s != 1 {
		t.Errorf("GPRS signal = %v, want 1", s)
	}
}

func TestSignalBoundsProperty(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "origin", geo.Pt(0, 0), Bluetooth)
	i := 0
	prop := func(x, y int8) bool {
		i++
		id := ids.DeviceIDf("p%d", i)
		if err := env.Add(id, mobility.Static{At: geo.Pt(float64(x), float64(y))}, Bluetooth); err != nil {
			return false
		}
		s := env.Signal("origin", id, Bluetooth)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTechnologies(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "tri", geo.Pt(0, 0), GPRS, Bluetooth, WLAN)
	got := env.Technologies("tri")
	want := []Technology{Bluetooth, WLAN, GPRS}
	if len(got) != len(want) {
		t.Fatalf("Technologies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Technologies = %v, want preference order %v", got, want)
		}
	}
	if env.Technologies("ghost") != nil {
		t.Error("unknown device should have no technologies")
	}
}

func TestRemove(t *testing.T) {
	env, _ := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), Bluetooth)
	mustAdd(t, env, "b", geo.Pt(1, 0), Bluetooth)
	env.Remove("b")
	if env.Has("b") {
		t.Fatal("b should be gone")
	}
	if env.Reachable("a", "b", Bluetooth) {
		t.Fatal("removed device should be unreachable")
	}
	if _, err := env.Position("b"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("Position err = %v, want ErrUnknownDevice", err)
	}
}

func TestSetModel(t *testing.T) {
	env, clk := staticWorld(t)
	mustAdd(t, env, "a", geo.Pt(0, 0), Bluetooth)
	if err := env.SetModel("a", mobility.Static{At: geo.Pt(42, 0)}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	p, err := env.Position("a")
	if err != nil {
		t.Fatal(err)
	}
	if p != geo.Pt(42, 0) {
		t.Fatalf("position = %v, want (42, 0)", p)
	}
}

func mustAdd(t *testing.T, env *Environment, id ids.DeviceID, at geo.Point, techs ...Technology) {
	t.Helper()
	if err := env.Add(id, mobility.Static{At: at}, techs...); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborsSymmetricProperty: for random placements, a appears in
// b's neighbor list exactly when b appears in a's.
func TestNeighborsSymmetricProperty(t *testing.T) {
	prop := func(coords [8]int8) bool {
		env, _ := staticWorld(t)
		n := len(coords) / 2
		for i := 0; i < n; i++ {
			id := ids.DeviceIDf("p%d", i)
			at := geo.Pt(float64(coords[2*i]), float64(coords[2*i+1]))
			if err := env.Add(id, mobility.Static{At: at}, Bluetooth); err != nil {
				return false
			}
		}
		inList := func(list []ids.DeviceID, id ids.DeviceID) bool {
			for _, x := range list {
				if x == id {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				a, b := ids.DeviceIDf("p%d", i), ids.DeviceIDf("p%d", j)
				if inList(env.Neighbors(a, Bluetooth), b) != inList(env.Neighbors(b, Bluetooth), a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationCountsMovingDevices pins what the transport's link
// sweep reads: every world mutation bumps the generation, and the
// moving count follows Add, SetModel and Remove.
func TestGenerationCountsMovingDevices(t *testing.T) {
	env, _ := staticWorld(t)
	walk := mobility.Linear{Velocity: geo.Vec(1, 0)}
	gen, _ := env.Generation()
	step := func(what string, wantMoving int, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		g, moving := env.Generation()
		if g <= gen || moving != wantMoving {
			t.Fatalf("%s: generation %d -> %d, moving %d; want a bump and %d moving", what, gen, g, moving, wantMoving)
		}
		gen = g
	}
	step("add static", 0, func() error { return env.Add("s", nil, Bluetooth) })
	step("add walker", 1, func() error { return env.Add("w", walk, Bluetooth) })
	step("walker stops", 0, func() error { return env.SetModel("w", mobility.Static{}) })
	step("static starts walking", 1, func() error { return env.SetModel("s", walk) })
	step("power off", 1, func() error { return env.SetPowered("s", false) })
	step("coverage off", 1, func() error { return env.SetCoverage("w", false) })
	step("remove walker", 0, func() error { env.Remove("s"); return nil })
	step("remove static", 0, func() error { env.Remove("w"); return nil })
}
