package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/community"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// DeltaScalePoint is one row of the delta-synchronization experiment:
// one active client's group round against n neighbors, cold (empty
// cache, full interest lists on the wire) versus steady state (primed
// cache, NOT_MODIFIED answers and a skipped group rebuild).
type DeltaScalePoint struct {
	Devices int
	// Engine is "goroutine" or "des".
	Engine string
	// ColdWall / SteadyWall are the real wall cost of one full
	// RefreshGroups round in each regime.
	ColdWall   time.Duration
	SteadyWall time.Duration
	// ColdBytes / SteadyBytes are the payload bytes the round moved
	// through the transport.
	ColdBytes   uint64
	SteadyBytes uint64
	// Client is the active client's stats after both rounds: the steady
	// round must show one NotModified + CacheHit per neighbor.
	Client community.ClientStats
}

// WallSpeedup is ColdWall / SteadyWall.
func (p DeltaScalePoint) WallSpeedup() float64 {
	if p.SteadyWall <= 0 {
		return 0
	}
	return float64(p.ColdWall) / float64(p.SteadyWall)
}

// ByteRatio is ColdBytes / SteadyBytes.
func (p DeltaScalePoint) ByteRatio() float64 {
	if p.SteadyBytes == 0 {
		return 0
	}
	return float64(p.ColdBytes) / float64(p.SteadyBytes)
}

// deltaVocabulary models realistic member profiles: every peer carries
// deltaInterestsPerPeer terms drawn from it, so a cold round moves a
// full interest list per neighbor while a steady round moves only the
// fixed-size NOT_MODIFIED frame — the asymmetry the delta protocol
// exists for.
var deltaVocabulary = []string{
	"football", "ice-hockey", "progressive-rock", "classical-music",
	"mobile-photography", "trail-running", "board-games", "astronomy",
	"street-food", "travel-stories", "retro-computing", "gardening",
	"language-exchange", "film-festivals", "chess", "orienteering",
	"vintage-cameras", "stand-up-comedy", "urban-sketching", "sailing",
	"science-fiction", "craft-coffee", "karaoke-nights", "birdwatching",
}

const deltaInterestsPerPeer = 20

func deltaInterests(i int) []string {
	out := make([]string, deltaInterestsPerPeer)
	for k := range out {
		// Stride 5 is coprime with the 24-term vocabulary, so every
		// peer gets 20 distinct terms with heavy cross-peer overlap.
		out[k] = deltaVocabulary[(i+k*5)%len(deltaVocabulary)]
	}
	return dedupTerms(out)
}

func dedupTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := terms[:0]
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// DeltaScaleConfig parameterizes the sweep.
type DeltaScaleConfig struct {
	// Scale is the latency scale (default 1e-4).
	Scale vtime.Scale
	// Engine selects the transport. On the discrete-event engine the
	// point runs in integrated mode: the measured client stays the
	// blocking differential oracle while the transport underneath it
	// rides the scheduler, as in the overload sweep.
	Engine
}

func (c DeltaScaleConfig) withDefaults() DeltaScaleConfig {
	if c.Scale.Factor() == 1 || c.Scale.Factor() == 0 {
		c.Scale = vtime.NewScale(1e-4)
	}
	return c
}

// RunDeltaScaleConfig measures cold-vs-steady group rounds at each
// neighbor count. Peers stand on a tight grid inside one Bluetooth
// cell with overlapping multi-term profiles; only the active peer
// drives rounds, so the byte counters isolate a single client's
// traffic.
func RunDeltaScaleConfig(cfg DeltaScaleConfig, deviceCounts []int) ([]DeltaScalePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]DeltaScalePoint, 0, len(deviceCounts))
	for _, n := range deviceCounts {
		p, err := runDeltaPoint(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("harness: delta point %d: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func runDeltaPoint(cfg DeltaScaleConfig, peers int) (DeltaScalePoint, error) {
	if peers < 1 {
		return DeltaScalePoint{}, fmt.Errorf("need at least one peer")
	}
	builder := scenario.NewBuilder().WithScale(cfg.Scale).WithSeed(int64(peers))
	cfg.build(builder)
	side := 1 + peers/4
	for i := 0; i < peers; i++ {
		builder.AddPeer(scenario.PeerSpec{
			Member:    ids.MemberID(fmt.Sprintf("peer-%04d", i)),
			Position:  geo.Pt(float64(i%side)*0.01, float64(i/side)*0.01),
			Interests: deltaInterests(i),
		})
	}
	builder.AddPeer(scenario.PeerSpec{
		Member:    "active",
		Device:    "active-dev",
		Position:  geo.Pt(0.005, 0.005),
		Interests: deltaInterests(0),
	})
	d, err := builder.Build()
	if err != nil {
		return DeltaScalePoint{}, err
	}
	defer d.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	active := d.MustPeer("active")
	if err := active.Daemon.RefreshNow(ctx); err != nil {
		return DeltaScalePoint{}, err
	}

	point := DeltaScalePoint{Devices: peers, Engine: cfg.name()}
	round := func(wall *time.Duration, bytes *uint64) error {
		before := d.Net.Counters().BytesDelivered
		sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())
		if _, err := active.Client.RefreshGroups(ctx); err != nil {
			return err
		}
		*wall = sw.Elapsed()
		*bytes = d.Net.Counters().BytesDelivered - before
		return nil
	}
	if err := round(&point.ColdWall, &point.ColdBytes); err != nil {
		return DeltaScalePoint{}, err
	}
	if len(active.Client.Groups()) == 0 {
		return DeltaScalePoint{}, fmt.Errorf("cold round formed no groups at %d peers", peers)
	}
	if err := round(&point.SteadyWall, &point.SteadyBytes); err != nil {
		return DeltaScalePoint{}, err
	}
	point.Client = active.Client.Stats()
	return point, nil
}

// FormatDeltaScale renders the delta series as a table.
func FormatDeltaScale(points []DeltaScalePoint) string {
	header := []string{"Devices", "Engine", "Cold round", "Steady round", "Speedup",
		"Cold bytes", "Steady bytes", "Byte ratio", "NotMod", "Cache hits"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		engine := p.Engine
		if engine == "" {
			engine = "goroutine"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			engine,
			p.ColdWall.Round(10 * time.Microsecond).String(),
			p.SteadyWall.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.1fx", p.WallSpeedup()),
			fmt.Sprintf("%d", p.ColdBytes),
			fmt.Sprintf("%d", p.SteadyBytes),
			fmt.Sprintf("%.1fx", p.ByteRatio()),
			fmt.Sprintf("%d", p.Client.NotModified),
			fmt.Sprintf("%d", p.Client.CacheHits),
		})
	}
	return FormatTable(header, rows)
}
