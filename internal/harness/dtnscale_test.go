package harness

import (
	"testing"
)

// TestDTNScaleStrategies runs both relay strategies in both sparse
// worlds on both engines at a small size: the social strategy must
// deliver everything (couriers learn destinations on the warm-up tour
// and direct-contact delivery closes each route), must never cost more
// copies per delivered message than epidemic spray, and every run's
// custody counters must balance (enforced inside the harness).
func TestDTNScaleStrategies(t *testing.T) {
	for _, des := range []bool{false, true} {
		for _, world := range []string{"bus", "campus"} {
			var epidemic, social DTNScalePoint
			for _, strat := range []string{"epidemic", "social"} {
				p, err := RunDTNScaleMode(DTNScaleConfig{Seed: 7, Engine: Engine{DES: des}}, 80, world, strat)
				if err != nil {
					t.Fatalf("des=%v %s/%s: %v", des, world, strat, err)
				}
				if p.Sent == 0 {
					t.Fatalf("des=%v %s/%s: no traffic originated", des, world, strat)
				}
				if p.Delivered == 0 {
					t.Errorf("des=%v %s/%s: nothing delivered", des, world, strat)
				}
				if strat == "epidemic" {
					epidemic = p
				} else {
					social = p
				}
			}
			if social.DeliveryRatio < 1.0 {
				t.Errorf("des=%v %s: social delivery ratio %.2f, want 1.00 (%d/%d)",
					des, world, social.DeliveryRatio, social.Delivered, social.Sent)
			}
			if social.Delivered > 0 && epidemic.Delivered > 0 &&
				social.CopiesPerDelivered > epidemic.CopiesPerDelivered {
				t.Errorf("des=%v %s: social copies/delivered %.1f above epidemic %.1f",
					des, world, social.CopiesPerDelivered, epidemic.CopiesPerDelivered)
			}
		}
	}
}

// TestDTNScaleFormat smoke-tests the table renderer.
func TestDTNScaleFormat(t *testing.T) {
	p, err := RunDTNScaleMode(DTNScaleConfig{Seed: 3, Rounds: 16}, 40, "bus", "social")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDTNScale([]DTNScalePoint{p})
	if len(out) == 0 {
		t.Fatal("empty table")
	}
}
