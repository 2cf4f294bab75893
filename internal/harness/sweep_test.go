package harness

import (
	"reflect"
	"testing"
)

// sameAcrossLayouts runs one discrete-event sweep at {1,4,16} shards ×
// {1,4} workers and fails the test unless every run returns the point
// of the first; run clears the point's wall time. It returns that
// point.
func sameAcrossLayouts[P any](t *testing.T, what string, run func(Engine) (P, error)) P {
	t.Helper()
	var want P
	first := true
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			got, err := run(Engine{DES: true, Shards: shards, Workers: workers})
			if err != nil {
				t.Fatalf("%s shards=%d workers=%d: %v", what, shards, workers, err)
			}
			if first {
				want, first = got, false
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s shards=%d workers=%d:\n got %+v\nwant %+v (shards=1 workers=1)", what, shards, workers, got, want)
			}
		}
	}
	return want
}

// TestSweepsSeedExactAcrossShardsAndWorkers pins the sweep kernel's
// determinism on the gossip and DTN experiments: on the discrete-event
// engine a round is one driver event per device drained by Run, so
// every field of every point but Wall — rounds to converge, bytes,
// messages, deliveries, latencies, copies and every node counter — is a
// function of the seed, whatever the shard and worker counts. The
// fan-out baseline's pulls do not depend on their order, so it must
// also move the same bytes and messages, and cover the neighborhood in
// the same round, on the goroutine engine.
func TestSweepsSeedExactAcrossShardsAndWorkers(t *testing.T) {
	for _, mode := range []string{"fanout", "gossip"} {
		des := sameAcrossLayouts(t, "gossip "+mode, func(e Engine) (GossipScalePoint, error) {
			p, err := RunGossipScaleMode(GossipScaleConfig{Seed: 7, Engine: e}, 60, mode)
			p.Wall = 0
			return p, err
		})
		if des.ConvergedRound == 0 || des.Bytes == 0 {
			t.Fatalf("gossip %s: sweep did no work: %+v", mode, des)
		}
		if mode != "fanout" {
			continue
		}
		goro, err := RunGossipScaleMode(GossipScaleConfig{Seed: 7}, 60, mode)
		if err != nil {
			t.Fatal(err)
		}
		if goro.Bytes != des.Bytes || goro.Messages != des.Messages || goro.ConvergedRound != des.ConvergedRound {
			t.Errorf("fan-out on the goroutine engine: %d bytes, %d messages, converged@%d; on the DES %d, %d, %d",
				goro.Bytes, goro.Messages, goro.ConvergedRound, des.Bytes, des.Messages, des.ConvergedRound)
		}
	}
	for _, world := range []string{"bus", "campus"} {
		for _, strat := range []string{"epidemic", "social"} {
			des := sameAcrossLayouts(t, "dtn "+world+"/"+strat, func(e Engine) (DTNScalePoint, error) {
				p, err := RunDTNScaleMode(DTNScaleConfig{Seed: 7, Engine: e}, 80, world, strat)
				p.Wall = 0
				return p, err
			})
			if des.Delivered == 0 || des.CopiesSent == 0 {
				t.Fatalf("dtn %s/%s: sweep did no work: %+v", world, strat, des)
			}
		}
	}
}
