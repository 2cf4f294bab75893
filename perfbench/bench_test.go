package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// The workloads at toy size: every oracle must pass, and every replay
// of a seed — traced or not, on any DES worker count — must reproduce
// the first replay's fingerprint exactly. Odd replays run traced.
func replays(t *testing.T, runs ...func(tr *tracer) (*episode, error)) []*episode {
	t.Helper()
	var eps []*episode
	for i, run := range runs {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer(i)
		}
		ep, err := run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if ep.oracle != nil {
			t.Fatalf("replay %d: oracle: %v", i, ep.oracle)
		}
		if tr != nil {
			ep.ledger = tr.reduce()
		}
		eps = append(eps, ep)
		if ep.fingerprint != eps[0].fingerprint {
			t.Fatalf("replay %d: fingerprint %x, first replay %x", i, ep.fingerprint, eps[0].fingerprint)
		}
	}
	return eps
}

func TestDiscoveryOracleAndWorkerInvariance(t *testing.T) {
	cfg := discoveryConfig{Devices: 300, Rounds: 2, Fanout: 3, Shards: 4}
	run := func(workers int) func(tr *tracer) (*episode, error) {
		return func(tr *tracer) (*episode, error) {
			c := cfg
			c.Workers = workers
			return runDiscovery(c, 7, tr, false)
		}
	}
	eps := replays(t, run(1), run(4), run(2))
	ep := eps[1]
	if ep.attempted == 0 || ep.failed != 0 {
		t.Fatalf("attempted %d failed %d", ep.attempted, ep.failed)
	}
	if n := len(ep.ledger.kinds[kNeighborsAt].self); n != cfg.Devices*cfg.Rounds {
		t.Fatalf("traced %d neighbor queries, want %d", n, cfg.Devices*cfg.Rounds)
	}
	if ep.ledger.runSelf <= 0 {
		t.Fatalf("scheduler self time %d", ep.ledger.runSelf)
	}
}

func TestCommunityOracle(t *testing.T) {
	cfg := communityConfig{Peers: 32, Cluster: 16, Rounds: 3}
	run := func(tr *tracer) (*episode, error) { return runCommunity(cfg, 3, tr, false) }
	ep := replays(t, run, run)[0]
	if ep.modeled.deliveryRatio != 1 || ep.failed != 0 {
		t.Fatalf("delivery ratio %v, failed %d", ep.modeled.deliveryRatio, ep.failed)
	}
	if ep.counters["community.not_modified_ratio"] <= 0 {
		t.Fatalf("no NOT_MODIFIED answers: %v", ep.counters)
	}
}

func TestCourierOracle(t *testing.T) {
	cfg := courierConfig{Blocks: 2, CourierEvery: 3, Residents: 4, Dwell: 1, Warmup: 6, Traffic: 4, PerRound: 6, TTL: 8, EditEvery: 8}
	run := func(tr *tracer) (*episode, error) { return runCourier(cfg, 5, tr, false) }
	eps := replays(t, run, run)
	if r := eps[0].modeled.deliveryRatio; r <= 0 || r > 1 {
		t.Fatalf("delivery ratio %v", r)
	}
	if len(eps[1].ledger.kinds[kGroupsCb].self) == 0 {
		t.Fatal("groups callback never traced")
	}
}

func TestSameGroupsRejectsMismatch(t *testing.T) {
	a := core.Member{Device: "dev-a", ID: "a", Interests: []string{"chess"}}
	b := core.Member{Device: "dev-b", ID: "b", Interests: []string{"chess"}}
	c := core.Member{Device: "dev-c", ID: "c", Interests: []string{"chess"}}
	want := core.DiscoverGroups(a, []core.Member{b}, nil)
	if err := sameGroups(want, want); err != nil {
		t.Fatal(err)
	}
	if sameGroups(core.DiscoverGroups(a, []core.Member{c}, nil), want) == nil {
		t.Fatal("different members accepted")
	}
	if sameGroups(nil, want) == nil {
		t.Fatal("missing group accepted")
	}
}

func TestLedgerSelfTimeAndCoverage(t *testing.T) {
	nested := &spanBuf{spans: []span{
		{start: 0, end: 10, parent: -1, kind: kGossipRound},
		{start: 2, end: 6, parent: 0, kind: kNeighborsCb},
		{start: 3, end: 5, parent: 1, kind: kNeighborsAt},
	}}
	run := &spanBuf{spans: []span{{start: 0, end: 100, parent: -1, kind: kDESRun}}}
	roots := &spanBuf{spans: []span{
		{start: 10, end: 30, parent: -1, kind: kCont},
		{start: 20, end: 40, parent: -1, kind: kCont},
		{start: 90, end: 120, parent: -1, kind: kCont},
	}}
	l := (&tracer{bufs: []*spanBuf{nested, run, roots}}).reduce()
	for k, want := range map[kind]int64{kGossipRound: 6, kNeighborsCb: 2, kNeighborsAt: 2} {
		if got := l.kinds[k].sum; got != want {
			t.Errorf("%s self %d, want %d", kindNames[k], got, want)
		}
	}
	if l.runSelf != 60 {
		t.Errorf("run self %d, want 60 (100 minus the 40 its roots cover)", l.runSelf)
	}
}

func TestThroughputTakesMedianPerWindow(t *testing.T) {
	ep := func(secs ...time.Duration) *episode {
		e := &episode{devRounds: 100}
		for _, s := range secs {
			e.windows = append(e.windows, lap{wall: s * time.Second, probe: refProbe})
		}
		return e
	}
	// Every episode took 5 s, each with a different slow window; every
	// window's median is 1 s.
	eps := []*episode{ep(3, 1, 1), ep(1, 3, 1), ep(1, 1, 3)}
	if got := throughput(eps, true); got != 100.0/3 {
		t.Fatalf("throughput %v, want %v", got, 100.0/3)
	}
}

func TestRoundsMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{5, 6, 6, 7}, 6},
		{[]float64{5, 5, 6, 7}, 5.5},
	} {
		if got := roundsMedian(c.in); got != c.want {
			t.Errorf("roundsMedian(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json's workloads and metric lists
// to the ones the program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program prints %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d] = %+v, program prints %+v", what, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, program runs %q", i, w.Name, workloads[i].name)
		}
	}
}
