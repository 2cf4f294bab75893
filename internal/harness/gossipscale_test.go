package harness

import (
	"testing"
)

// TestGossipScaleModes runs both modes on both engines at a small
// size: the fan-out baseline must cover every neighborhood in round
// one, the epidemic must converge within the round budget, and both
// must actually move bytes.
func TestGossipScaleModes(t *testing.T) {
	for _, des := range []bool{false, true} {
		points, err := RunGossipScale(GossipScaleConfig{Seed: 7, Engine: Engine{DES: des}}, []int{60})
		if err != nil {
			t.Fatalf("des=%v: %v", des, err)
		}
		if len(points) != 2 {
			t.Fatalf("des=%v: got %d points, want 2", des, len(points))
		}
		fanout, gsp := points[0], points[1]
		if fanout.Mode != "fanout" || gsp.Mode != "gossip" {
			t.Fatalf("des=%v: unexpected mode order: %+v", des, points)
		}
		if fanout.ConvergedRound != 1 {
			t.Errorf("des=%v: fan-out covered the neighborhood in round %d, want 1", des, fanout.ConvergedRound)
		}
		if gsp.ConvergedRound == 0 {
			t.Errorf("des=%v: gossip never converged", des)
		}
		if fanout.Bytes == 0 || gsp.Bytes == 0 {
			t.Errorf("des=%v: a mode moved no bytes: fanout=%d gossip=%d", des, fanout.Bytes, gsp.Bytes)
		}
		if gsp.Stats.PushesSent == 0 || gsp.Stats.AERuns == 0 {
			t.Errorf("des=%v: gossip engine idle: %+v", des, gsp.Stats)
		}
		// The headline claim at scale; it already holds in this small
		// world, where fan-out re-polls every neighbor's full record
		// each round while the converged epidemic has quiesced to
		// amortized anti-entropy digests.
		if gsp.SteadyBytesPerRound >= fanout.SteadyBytesPerRound {
			t.Errorf("des=%v: gossip steady bytes/round %.0f not below fan-out %.0f",
				des, gsp.SteadyBytesPerRound, fanout.SteadyBytesPerRound)
		}
	}
}

// TestGossipScaleFormat smoke-tests the table renderer.
func TestGossipScaleFormat(t *testing.T) {
	points, err := RunGossipScale(GossipScaleConfig{Seed: 3}, []int{24})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatGossipScale(points)
	if len(out) == 0 {
		t.Fatal("empty table")
	}
}
