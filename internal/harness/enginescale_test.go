package harness

import (
	"testing"
)

// TestEngineScaleBothEngines runs the discovery sweep small on both
// engines and checks each produced real work: groups formed, messages
// delivered, and — on the event engine — a nonzero executed-event
// count with virtual time consumed.
func TestEngineScaleBothEngines(t *testing.T) {
	for _, des := range []bool{false, true} {
		name := "goroutine"
		if des {
			name = "des"
		}
		t.Run(name, func(t *testing.T) {
			points, err := RunEngineScale(EngineScaleConfig{Seed: 7, Engine: Engine{DES: des}, Rounds: 2}, []int{40})
			if err != nil {
				t.Fatal(err)
			}
			p := points[0]
			if p.Engine != name {
				t.Errorf("engine label %q, want %q", p.Engine, name)
			}
			if p.Groups == 0 {
				t.Error("sweep formed no groups")
			}
			if p.Delivered == 0 {
				t.Error("sweep delivered no messages")
			}
			if p.Virtual <= 0 {
				t.Error("sweep consumed no virtual time")
			}
			if des {
				if p.Events == 0 {
					t.Error("event engine executed no events")
				}
				if p.EventsPerSec <= 0 {
					t.Error("event engine reported no throughput")
				}
			}
		})
	}
}

// TestEngineScaleDESPushesPastGoroutineSizes is the scaled smoke: the
// event engine must complete a 1000-device sweep in test time — the
// regime the full benchmark (BenchmarkDESScaleDiscovery) extends to
// 10k–100k devices.
func TestEngineScaleDESPushesPastGoroutineSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled sweep skipped in -short mode")
	}
	points, err := RunEngineScale(EngineScaleConfig{Seed: 11, Engine: Engine{DES: true}}, []int{1000})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Groups == 0 || p.Delivered == 0 {
		t.Errorf("1000-device DES sweep did no work: %+v", p)
	}
}

// TestEngineScaleEventDriversMatchOracles is the driver differential:
// at n ≤ 200 the event-driver sweep on the DES engine must form exactly
// the groups and deliver exactly the messages of the goroutine engine's
// blocking drivers. Groups and Delivered are timing-independent
// observables of the same protocol, so any divergence is an
// event-translation bug, not schedule noise.
func TestEngineScaleEventDriversMatchOracles(t *testing.T) {
	for _, n := range []int{40, 200} {
		run := func(cfg EngineScaleConfig) EngineScalePoint {
			t.Helper()
			points, err := RunEngineScale(cfg, []int{n})
			if err != nil {
				t.Fatal(err)
			}
			return points[0]
		}
		event := run(EngineScaleConfig{Seed: 7, Engine: Engine{DES: true}})
		goro := run(EngineScaleConfig{Seed: 7})
		if event.Groups != goro.Groups || event.Delivered != goro.Delivered {
			t.Errorf("n=%d: event drivers (groups=%d delivered=%d) != goroutine drivers (groups=%d delivered=%d)",
				n, event.Groups, event.Delivered, goro.Groups, goro.Delivered)
		}
		if event.Groups == 0 || event.Delivered == 0 {
			t.Errorf("n=%d: differential compared empty sweeps: %+v", n, event)
		}
	}
}

// TestEngineScaleTraceInvariantAcrossShardsAndWorkers pins the
// tentpole determinism claim end to end: the full event-driver sweep —
// drivers, dials, deliveries, teardowns — must produce one trace hash
// (and identical Groups/Delivered/Events) across {1,4,16} shards ×
// {1,4} workers. Run under -race this is also the proof that parallel
// batch execution cannot leak into event ordering.
func TestEngineScaleTraceInvariantAcrossShardsAndWorkers(t *testing.T) {
	const n = 120
	var want EngineScalePoint
	first := true
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			points, err := RunEngineScale(EngineScaleConfig{Seed: 13, Engine: Engine{DES: true, Shards: shards, Workers: workers}}, []int{n})
			if err != nil {
				t.Fatal(err)
			}
			p := points[0]
			if p.TraceHash == 0 || p.Events == 0 {
				t.Fatalf("shards=%d workers=%d: sweep left no trace: %+v", shards, workers, p)
			}
			if first {
				want, first = p, false
				continue
			}
			if p.TraceHash != want.TraceHash || p.Events != want.Events ||
				p.Groups != want.Groups || p.Delivered != want.Delivered {
				t.Errorf("shards=%d workers=%d: trace %#x/%d events (groups=%d delivered=%d) != shards=1 workers=1 trace %#x/%d (groups=%d delivered=%d)",
					shards, workers, p.TraceHash, p.Events, p.Groups, p.Delivered,
					want.TraceHash, want.Events, want.Groups, want.Delivered)
			}
		}
	}
}
