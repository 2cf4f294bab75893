package harness

import (
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestOverloadShedsAndStaysBounded runs a small overload point at 10×
// offered load and checks the degradation contract: fresh arrivals are
// shed, the admission queue never exceeds its bound, and the observer's
// steady group round stays bounded while the hot server is under fire.
func TestOverloadShedsAndStaysBounded(t *testing.T) {
	cfg := OverloadConfig{
		Scale:   vtime.NewScale(1e-4),
		Devices: []int{24},
		Loads:   []int{1, 10},
		Rounds:  2,
	}
	points, err := RunOverload(cfg)
	if err != nil {
		t.Fatalf("RunOverload: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	calm, hot := points[0], points[1]
	if calm.Load != 1 || hot.Load != 10 {
		t.Fatalf("unexpected point order: %+v", points)
	}
	if calm.Server.Shed != 0 {
		t.Errorf("1× load shed %d sessions, want 0", calm.Server.Shed)
	}
	if hot.Server.Shed == 0 {
		t.Error("10× load shed no sessions; admission control is not engaging")
	}
	if max := hot.Server.QueueDepthMax; max > 16 {
		t.Errorf("queue depth reached %d, bound is 16", max)
	}
	// The observer's sessions were admitted before the storm; its steady
	// rounds must not degrade into timeout territory. The budget is
	// loose — a scheduling-noise ceiling, not a performance target.
	const budget = 2 * time.Second
	for _, p := range points {
		if p.SteadyRound > budget {
			t.Errorf("steady round at %d× took %v, budget %v", p.Load, p.SteadyRound, budget)
		}
	}
	out := FormatOverload(points)
	if out == "" {
		t.Error("FormatOverload returned empty table")
	}
}

// TestOverloadDESEventLoad runs the same overload point with the load
// generator as event-native session cascades on the discrete-event
// engine: the offered load must still reach the server (sessions
// admitted, pressure past capacity shed), the queue bound must hold,
// and the observer's steady round must stay bounded — the degradation
// contract is engine-independent.
func TestOverloadDESEventLoad(t *testing.T) {
	cfg := OverloadConfig{
		Scale:   vtime.NewScale(1e-4),
		Devices: []int{24},
		Loads:   []int{10},
		Rounds:  2,
		Engine:  Engine{DES: true},
	}
	points, err := RunOverload(cfg)
	if err != nil {
		t.Fatalf("RunOverload: %v", err)
	}
	p := points[0]
	if p.Engine != "des" {
		t.Errorf("engine = %q, want des", p.Engine)
	}
	if p.Server.Admitted == 0 {
		t.Error("event-native load admitted no sessions; the cascades never reached the server")
	}
	if p.Server.Shed == 0 {
		t.Error("10× event-native load shed no sessions; admission control is not engaging")
	}
	if max := p.Server.QueueDepthMax; max > 16 {
		t.Errorf("queue depth reached %d, bound is 16", max)
	}
	const budget = 2 * time.Second
	if p.SteadyRound > budget {
		t.Errorf("steady round took %v, budget %v", p.SteadyRound, budget)
	}
}
