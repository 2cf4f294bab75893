package simtest

import (
	"reflect"
	"testing"
)

// chaosRow is one row of the chaos table: a seeded matrix of the given
// size and base seed, the engine it runs on, and the checks each of its
// scenarios must pass. A DES row runs its scenarios with Scenario.DES
// and prefixes their names with "des-"; it takes the same checks as
// the goroutine row of its matrix, since the engines are two
// implementations of one transport contract.
type chaosRow struct {
	des    bool
	matrix func(n int, baseSeed int64) []Scenario
	size   int
	seed   int64
	check  func(t *testing.T, sc Scenario, res *Result)
}

// chaosTable holds every chaos matrix on every engine it runs on, keyed
// by the test that runs the row. The link-fault matrix is at least 50
// seeded combinations of churn, partition, loss, corruption, flaps and
// missed inquiries; the endpoint matrix composes stalls, slow devices,
// wedges and crash–restart with the link axes, with resilience armed;
// the gossip and DTN matrices run those planes under the same plans.
// Besides each row's checks, TestMain holds every scenario to leaving
// no goroutine behind, and a panic on a corrupted frame fails it.
var chaosTable = map[string]chaosRow{
	"TestChaosSuite":            {matrix: Matrix, size: 54, seed: 1, check: assertChaosInvariants},
	"TestChaosSuiteDES":         {des: true, matrix: Matrix, size: 54, seed: 1, check: assertChaosInvariants},
	"TestChaosEndpointSuite":    {matrix: EndpointMatrix, size: 10, seed: 11, check: assertEndpointInvariants},
	"TestChaosEndpointSuiteDES": {des: true, matrix: EndpointMatrix, size: 10, seed: 11, check: assertEndpointInvariants},
	"TestChaosGossipSuite":      {matrix: GossipMatrix, size: 16, seed: 21, check: assertGossipInvariants},
	"TestChaosGossipSuiteDES":   {des: true, matrix: GossipMatrix, size: 8, seed: 31, check: assertGossipInvariants},
	"TestChaosDTNSuite":         {matrix: DTNMatrix, size: 16, seed: 41, check: assertDTNInvariants},
	"TestChaosDTNSuiteDES":      {des: true, matrix: DTNMatrix, size: 8, seed: 51, check: assertDTNInvariants},
}

// The chaos table's rows. Each keeps a test of its own, so every
// scenario keeps the name CI and `make chaos` select it by.
func TestChaosSuite(t *testing.T)            { runChaosRow(t) }
func TestChaosSuiteDES(t *testing.T)         { runChaosRow(t) }
func TestChaosEndpointSuite(t *testing.T)    { runChaosRow(t) }
func TestChaosEndpointSuiteDES(t *testing.T) { runChaosRow(t) }
func TestChaosGossipSuite(t *testing.T)      { runChaosRow(t) }
func TestChaosGossipSuiteDES(t *testing.T)   { runChaosRow(t) }
func TestChaosDTNSuite(t *testing.T)         { runChaosRow(t) }
func TestChaosDTNSuiteDES(t *testing.T)      { runChaosRow(t) }

// runChaosRow runs the calling test's row of the chaos table, one
// parallel subtest per scenario.
func runChaosRow(t *testing.T) {
	row, ok := chaosTable[t.Name()]
	if !ok {
		t.Fatalf("no chaos table row for %s", t.Name())
	}
	if testing.Short() {
		t.Skip("chaos suite is long; skipped in -short mode")
	}
	for _, sc := range row.matrix(row.size, row.seed) {
		if row.des {
			sc.DES = true
			sc.Name = "des-" + sc.Name
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("scenario could not run: %v", err)
			}
			row.check(t, sc, res)
		})
	}
}

// assertChaosInvariants is the link-fault rows' check, and the base of
// the gossip and DTN rows' checks: no invariant violated, group views
// reconverged to the fault-free oracle once the faults lift, traffic
// driven, no call past its deadline budget (degrade, don't hang), and
// a lossy plan that visibly lost messages.
func assertChaosInvariants(t *testing.T, sc Scenario, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("group views never reconverged (rounds=%d, faults=%+v)",
			res.RoundsToReconverge, res.Faults)
	}
	if res.Calls == 0 {
		t.Error("scenario drove no traffic")
	}
	if res.MaxCallWall > res.CallBudget {
		t.Errorf("slowest call %v exceeded budget %v", res.MaxCallWall, res.CallBudget)
	}
	// A faulty scenario that injected nothing and failed nothing would
	// be vacuous; require evidence the plan was live.
	if sc.Loss >= 0.15 && res.Faults.MessagesLost == 0 {
		t.Errorf("loss=%v lost no messages: %+v", sc.Loss, res.Faults)
	}
}

// TestChaosReplay runs a loss-only scenario twice from the same seed:
// the fault plan's event trace and counters must replay identically.
// (Loss-only keeps behavior free of wall-time feedback: fates are drawn
// per message index, and with no corruption or timing faults the
// traffic's message sequence is itself a pure function of the seed.)
func TestChaosReplay(t *testing.T) {
	sc := Scenario{
		Name:  "replay",
		Seed:  777,
		Peers: 4,
		Loss:  0.2,
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Faults != r2.Faults {
		t.Errorf("fault counters diverged across replays:\n  run1: %+v\n  run2: %+v", r1.Faults, r2.Faults)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Errorf("event traces diverged across replays: %d vs %d events", len(r1.Events), len(r2.Events))
	}
	if r1.Faults.MessagesLost == 0 {
		t.Errorf("replay scenario injected nothing: %+v", r1.Faults)
	}
	if !r1.Reconverged || !r2.Reconverged {
		t.Errorf("replay runs did not reconverge: %v / %v", r1.Reconverged, r2.Reconverged)
	}
}

// TestChaosMutationBehindPrimedCache is the delta-synchronization
// chaos scenario: several traffic rounds prime every client's
// conditional cache (steady-state reads answer NOT_MODIFIED), then —
// while links flap — every peer adds a fresh shared interest to its
// live store. After healing, the oracle includes the brand-new
// deployment-wide group, so reconvergence proves the caches revalidate
// against the bumped epochs instead of serving the primed state.
func TestChaosMutationBehindPrimedCache(t *testing.T) {
	res, err := Run(Scenario{
		Name:            "mutation-behind-cache",
		Seed:            4242,
		Peers:           6,
		Flap:            0.08,
		Loss:            0.05,
		Rounds:          4,
		MutateInterests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("caches did not revalidate after the mutation (rounds=%d, client=%+v)",
			res.RoundsToReconverge, res.Client)
	}
	// The pre-mutation rounds must actually have primed the caches —
	// otherwise this scenario degenerates into a plain flap test.
	if res.Client.NotModified == 0 {
		t.Errorf("no NOT_MODIFIED rounds observed; cache was never primed: %+v", res.Client)
	}
	if res.Client.CacheHits == 0 {
		t.Errorf("no cache hits observed: %+v", res.Client)
	}
	if res.Faults.FlapsObserved == 0 {
		t.Errorf("flap knob injected nothing: %+v", res.Faults)
	}
}

// TestZeroScenarioIsClean and TestZeroScenarioDESIsClean pin the
// baseline on each engine: with every knob zero the run must see no
// faults, no call errors, and immediate reconvergence.
func TestZeroScenarioIsClean(t *testing.T) {
	assertZeroScenarioClean(t, Scenario{Name: "zero", Seed: 5, Peers: 4})
}

func TestZeroScenarioDESIsClean(t *testing.T) {
	assertZeroScenarioClean(t, Scenario{Name: "zero-des", Seed: 5, Peers: 4, DES: true})
}

// assertZeroScenarioClean runs one fault-free scenario and holds it to
// the zero-knob baseline.
func assertZeroScenarioClean(t *testing.T, sc Scenario) {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CallErrors != 0 {
		t.Errorf("fault-free run had %d call errors", res.CallErrors)
	}
	if res.Faults.MessagesLost != 0 || res.Faults.MessagesCorrupted != 0 || res.Faults.InquiriesMissed != 0 {
		t.Errorf("fault-free run counted faults: %+v", res.Faults)
	}
	if !res.Reconverged || res.RoundsToReconverge != 1 {
		t.Errorf("fault-free run took %d rounds to converge (reconverged=%v)",
			res.RoundsToReconverge, res.Reconverged)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations in fault-free run: %v", res.Violations)
	}
}
