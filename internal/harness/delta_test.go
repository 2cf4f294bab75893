package harness

import (
	"testing"

	"repro/internal/vtime"
)

// TestDeltaScaleBothEngines runs one small delta point per engine and
// checks the protocol contract holds identically: the steady round
// answers NOT_MODIFIED per neighbor out of the cache and moves fewer
// bytes than the cold round. The DES row runs in integrated mode, as
// the overload sweep does — the blocking client measured over the
// event-engine transport.
func TestDeltaScaleBothEngines(t *testing.T) {
	const peers = 12
	for _, useDES := range []bool{false, true} {
		cfg := DeltaScaleConfig{Scale: vtime.NewScale(1e-4), Engine: Engine{DES: useDES}}
		points, err := RunDeltaScaleConfig(cfg, []int{peers})
		if err != nil {
			t.Fatalf("DES=%v: %v", useDES, err)
		}
		p := points[0]
		wantEngine := "goroutine"
		if useDES {
			wantEngine = "des"
		}
		if p.Engine != wantEngine {
			t.Errorf("engine = %q, want %q", p.Engine, wantEngine)
		}
		if p.ColdBytes <= p.SteadyBytes {
			t.Errorf("%s: cold round moved %d bytes, steady %d; delta sync is not engaging",
				p.Engine, p.ColdBytes, p.SteadyBytes)
		}
		if p.Client.NotModified == 0 || p.Client.CacheHits == 0 {
			t.Errorf("%s: steady round shows NotModified=%d CacheHits=%d, want both > 0",
				p.Engine, p.Client.NotModified, p.Client.CacheHits)
		}
	}
	if out := FormatDeltaScale(nil); out == "" {
		t.Error("FormatDeltaScale returned empty table")
	}
}
