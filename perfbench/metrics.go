package main

import (
	"fmt"
	"io"
	"sort"
)

type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a run prints with --trace 0; they match
// BENCHMARK.json's end_to_end list.
var endToEndDefs = []metricDef{
	{"dev_rounds_per_s", "dev-rounds/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"wire_bytes_per_dev_round", "B", "lower"},
	{"delivery_ratio", "ratio", "higher"},
	{"copies_per_delivered", "copies", "lower"},
	{"delivery_rounds_p50", "rounds", "lower"},
}

// perLayerDefs are the metrics a run prints with --trace 1; they match
// BENCHMARK.json's per_layer list. A layer a workload does not exercise
// reports 0.
var perLayerDefs = []metricDef{
	{"des.events_per_dev_round", "events", "lower"},
	{"des.ns_per_event", "ns", "lower"},
	{"des.run_self_ns_per_dev_round", "ns", "lower"},
	{"radio.neighbors_at.calls_per_dev_round", "calls", "lower"},
	{"radio.neighbors_at.ns_p50", "ns", "lower"},
	{"radio.neighbors_at.ns_p99", "ns", "lower"},
	{"radio.neighbors_at.ns_max", "ns", "lower"},
	{"radio.neighbors_at.busy_share", "ratio", "lower"},
	{"radio.set_model.ns_p50", "ns", "lower"},
	{"netsim.dial_event.ns_p50", "ns", "lower"},
	{"netsim.send_event.ns_p50", "ns", "lower"},
	{"netsim.recv_event.ns_p50", "ns", "lower"},
	{"netsim.close_event.ns_p50", "ns", "lower"},
	{"netsim.dials_per_dev_round", "dials", "lower"},
	{"netsim.msgs_per_dev_round", "msgs", "lower"},
	{"netsim.dial_success_ratio", "ratio", "higher"},
	{"core.discover_groups.ns_p50", "ns", "lower"},
	{"core.discover_groups.busy_share", "ratio", "lower"},
	{"community.refresh_groups.ns_p50", "ns", "lower"},
	{"community.refresh_groups.ns_p99", "ns", "lower"},
	{"community.send_message.ns_p50", "ns", "lower"},
	{"community.send_message.ns_p99", "ns", "lower"},
	{"community.calls_per_dev_round", "calls", "lower"},
	{"community.not_modified_ratio", "ratio", "higher"},
	{"community.fanouts_degraded", "count", "lower"},
	{"community.served_per_dev_round", "requests", "lower"},
	{"profile.add_interest.ns_p50", "ns", "lower"},
	{"scenario.build_s", "s", "lower"},
	{"peerhood.refresh_all_s", "s", "lower"},
	{"community.priming_round_s", "s", "lower"},
	{"world.place_s", "s", "lower"},
	{"gossip.round.ns_p50", "ns", "lower"},
	{"gossip.round.ns_p99", "ns", "lower"},
	{"gossip.refresh.ns_p50", "ns", "lower"},
	{"gossip.push_skip_ratio", "ratio", "higher"},
	{"gossip.learned_per_record_sent", "ratio", "higher"},
	{"gossip.ae_runs_per_dev_round", "runs", "lower"},
	{"dtn.round.ns_p50", "ns", "lower"},
	{"dtn.round.ns_p99", "ns", "lower"},
	{"dtn.offers_per_dev_round", "offers", "lower"},
	{"dtn.duplicate_ratio", "ratio", "lower"},
	{"dtn.expired", "count", "lower"},
	{"dtn.evicted", "count", "lower"},
	{"runtime.alloc_bytes_per_dev_round", "B", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.goroutines_peak", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"host.wall_dev_rounds_per_s", "dev-rounds/s", "higher"},
	{"host.probe_ms", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// median is the middle value (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundsMedian is the median of whole-round latencies read as grouped
// data: each count k stands for the class [k-0.5, k+0.5), and the median
// interpolates inside the class holding the middle observation. Unlike
// the plain median it moves smoothly when a few messages arrive a round
// earlier or later.
func roundsMedian(rounds []float64) float64 {
	if len(rounds) == 0 {
		return 0
	}
	s := append([]float64(nil), rounds...)
	sort.Float64s(s)
	k := s[(len(s)-1)/2]
	below, in := 0, 0
	for _, v := range s {
		switch {
		case v < k:
			below++
		case v == k:
			in++
		}
	}
	return k - 0.5 + (float64(len(s))/2-float64(below))/float64(in)
}

// quantile interpolates the q-quantile of sorted values, 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	f := pos - float64(lo)
	return float64(sorted[lo])*(1-f) + float64(sorted[hi])*f
}

// spanMetrics reads one traced episode's ledger. Span times are self
// times; busy shares divide a layer's summed self time by the timed
// phase's wall time times its executors.
func spanMetrics(ep *episode) map[string]float64 {
	l := ep.ledger
	dr := float64(ep.devRounds)
	busy := float64(ep.timed.Nanoseconds()) * float64(max(ep.executors, 1))
	p := func(k kind, q float64) float64 { return quantile(l.kinds[k].self, q) }
	secs := func(k kind) float64 { return float64(l.kinds[k].sum) / 1e9 }
	n := &l.kinds[kNeighborsAt]
	out := map[string]float64{
		"des.run_self_ns_per_dev_round":          float64(l.runSelf) / dr,
		"radio.neighbors_at.calls_per_dev_round": float64(len(n.self)) / dr,
		"radio.neighbors_at.ns_p50":              p(kNeighborsAt, 0.5),
		"radio.neighbors_at.ns_p99":              p(kNeighborsAt, 0.99),
		"radio.neighbors_at.ns_max":              p(kNeighborsAt, 1),
		"radio.neighbors_at.busy_share":          float64(n.sum) / busy,
		"radio.set_model.ns_p50":                 p(kSetModel, 0.5),
		"netsim.dial_event.ns_p50":               p(kDialEvent, 0.5),
		"netsim.send_event.ns_p50":               p(kSendEvent, 0.5),
		"netsim.recv_event.ns_p50":               p(kRecvEvent, 0.5),
		"netsim.close_event.ns_p50":              p(kCloseEvent, 0.5),
		"core.discover_groups.ns_p50":            p(kDiscoverGroups, 0.5),
		"core.discover_groups.busy_share":        float64(l.kinds[kDiscoverGroups].sum) / busy,
		"community.refresh_groups.ns_p50":        p(kRefreshGroups, 0.5),
		"community.refresh_groups.ns_p99":        p(kRefreshGroups, 0.99),
		"community.send_message.ns_p50":          p(kSendMessage, 0.5),
		"community.send_message.ns_p99":          p(kSendMessage, 0.99),
		"profile.add_interest.ns_p50":            p(kAddInterest, 0.5),
		"scenario.build_s":                       secs(kScenarioBuild),
		"peerhood.refresh_all_s":                 secs(kRefreshAll),
		"community.priming_round_s":              secs(kPriming),
		"world.place_s":                          secs(kPlace),
		"gossip.round.ns_p50":                    p(kGossipRound, 0.5),
		"gossip.round.ns_p99":                    p(kGossipRound, 0.99),
		"gossip.refresh.ns_p50":                  p(kGossipRefresh, 0.5),
		"dtn.round.ns_p50":                       p(kDTNRound, 0.5),
		"dtn.round.ns_p99":                       p(kDTNRound, 0.99),
	}
	return out
}

// perLayer assembles the traced run's ledger: counters from the
// checking episode (they are seed-exact), span figures as the median
// over traced episodes, and wall-clock and runtime figures as the
// median over untraced ones.
func perLayer(m *measurement) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m.check.counters {
		out[k] = v
	}
	var spans []map[string]float64
	for _, ep := range m.traced {
		spans = append(spans, spanMetrics(ep))
	}
	for k := range spans[0] {
		var vs []float64
		for _, s := range spans {
			vs = append(vs, s[k])
		}
		out[k] = median(vs)
	}
	var nsPerEvent, alloc, gc, gor, probes []float64
	for _, ep := range m.plain {
		dr := float64(ep.devRounds)
		probes = append(probes, ep.probe().Seconds()*1000)
		if ep.events > 0 {
			nsPerEvent = append(nsPerEvent, float64(ep.timed.Nanoseconds())/float64(ep.events))
		}
		alloc = append(alloc, float64(ep.runtime.allocBytes)/dr)
		if ep.runtime.totalCPU > 0 {
			gc = append(gc, ep.runtime.gcCPU/ep.runtime.totalCPU)
		}
		gor = append(gor, float64(ep.runtime.goroutinesPeak))
	}
	out["des.ns_per_event"] = median(nsPerEvent)
	out["runtime.alloc_bytes_per_dev_round"] = median(alloc)
	out["host.probe_ms"] = median(probes)
	out["runtime.gc_cpu_share"] = median(gc)
	out["runtime.goroutines_peak"] = median(gor)
	out["trace.overhead"] = throughput(m.plain, true) / throughput(m.traced, true)
	out["host.wall_dev_rounds_per_s"] = throughput(m.plain, false)
	out["fail_ratio"] = ratio(m.check.failed, m.check.attempted)
	return out
}

// printLedger writes the per-layer table for a reader.
func printLedger(w io.Writer, workload string, vals map[string]float64) {
	fmt.Fprintf(w, "\nper-layer ledger, workload %s\n", workload)
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.name, vals[d.name], d.unit)
	}
}
