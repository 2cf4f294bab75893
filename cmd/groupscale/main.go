// Command groupscale runs the scaling experiment the thesis's
// conclusion proposes as future work: "performance testing during the
// dynamic group discovery in the social network on mobile environment
// can be done in order to analyze the efficiency of such dynamic group
// discovery". It measures the full cold-start search time (Bluetooth
// inquiry + SDP + interest gathering + group formation) as the
// neighborhood grows, and prints the series.
//
// Usage:
//
//	groupscale [-peers 1,2,4,8,16] [-scale FACTOR]
//	groupscale -substrate [-peers 100,500,1000,2000]
//	groupscale -overload [-des [-workers N]] [-peers 100,400,1000]
//	groupscale -delta [-des [-workers N]] [-peers 100,500,1000,2000]
//	groupscale -des [-peers 1000,10000,50000,100000] [-workers N]
//	groupscale -gossip [-peers 1000,10000,50000] [-workers N]
//	groupscale -dtn [-des [-workers N]] [-peers 100,200,400]
//
// -workers sets the event scheduler's executor count wherever a run is
// on the discrete-event engine: the -des sweep, the -gossip rows past
// the fan-out cap, and -dtn, -overload and -delta with -des.
//
// Every mode accepts -cpuprofile/-memprofile to write pprof profiles
// of the run, for hunting the next engine bottleneck without ad-hoc
// patches.
//
// With -substrate it instead measures the radio substrate itself —
// per-query neighbor-discovery cost, grid index vs brute force — at
// thousand-device scale, where the full-stack experiment would be
// dominated by protocol time.
//
// With -des it runs the engine-scaling sweep on the discrete-event
// transport engine — virtual time advanced by popping the event queue —
// at sizes the goroutine engine's timer waits cannot reach, printing a
// goroutine-engine reference row for each size small enough to run.
//
// With -gossip it compares dissemination strategies for neighborhood
// group state over a field of proximity clusters: the fan-out baseline
// (re-poll every neighbor's full record each round) against the
// epidemic engine (rumor mongering + bloom digests + anti-entropy),
// reporting rounds-to-converge and steady wire bytes per round.
// Fan-out reference rows run for sizes up to 2000 devices; the
// epidemic runs on the discrete-event engine beyond that.
//
// With -dtn it runs the store-carry-forward delivery experiment over
// sparse mobility worlds (bus routes and campus grids) where couriers
// are the only path between communities: epidemic spray-and-wait
// against the social group-encounter strategy, reporting delivery
// ratio, mean latency in contact rounds, and copies per delivered
// message.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/vtime"
)

func main() {
	peersFlag := flag.String("peers", "1,2,4,8,16", "comma-separated peer counts")
	scale := flag.Float64("scale", 1e-2, "latency scale: real seconds per modeled second")
	churn := flag.Bool("churn", false, "also measure group churn vs. walking speed")
	substrate := flag.Bool("substrate", false, "measure substrate neighbor queries (grid vs brute) instead of the full stack")
	delta := flag.Bool("delta", false, "measure delta-synchronized group rounds (cold vs steady cache) instead of the full stack")
	overload := flag.Bool("overload", false, "measure graceful degradation under offered load (admission control, shedding, bounded steady rounds)")
	desFlag := flag.Bool("des", false, "run the discovery sweep on the discrete-event engine (with goroutine-engine reference rows at small sizes)")
	gossipFlag := flag.Bool("gossip", false, "compare epidemic dissemination (rumor mongering + anti-entropy) against the fan-out baseline")
	dtnFlag := flag.Bool("dtn", false, "run the store-carry-forward delivery experiment (epidemic spray vs social relay) over sparse mobility worlds")
	workers := flag.Int("workers", 0, "event-scheduler executor count for discrete-event runs: -des, -gossip rows past 2000 devices, and -dtn/-overload/-delta with -des (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "groupscale: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "groupscale: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "groupscale: memprofile:", err)
			}
			_ = f.Close()
		}()
	}

	peersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "peers" {
			peersSet = true
		}
	})
	if (*substrate || *delta) && !peersSet {
		// The substrate and delta experiments are about large worlds.
		*peersFlag = "100,500,1000,2000"
	}
	if *overload && !peersSet {
		*peersFlag = "100,400,1000"
	}
	if *desFlag && !peersSet {
		*peersFlag = "1000,10000,50000,100000"
	}
	if *gossipFlag && !peersSet {
		*peersFlag = "1000,10000,50000"
	}
	if *dtnFlag && !peersSet {
		*peersFlag = "100,200,400"
	}

	var counts []int
	for _, f := range strings.Split(*peersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "groupscale: bad peer count %q\n", f)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	if *desFlag && !*dtnFlag && !*overload && !*delta && !*gossipFlag {
		fmt.Println("Engine-scaling discovery sweep: every device runs an inquiry")
		fmt.Println("window, queries its neighborhood and exchanges interest")
		fmt.Println("advertisements with a capped fan-out. The discrete-event engine")
		fmt.Println("collapses shared deadlines into event windows, so wall-clock")
		fmt.Println("scales with executed events; goroutine-engine reference rows run")
		fmt.Println("for sizes up to 2000 devices.")
		fmt.Println()
		const oracleCap = 2000
		var points []harness.EngineScalePoint
		for _, n := range counts {
			if n > oracleCap {
				continue
			}
			ps, err := harness.RunEngineScale(harness.EngineScaleConfig{Seed: 7}, []int{n})
			if err != nil {
				fmt.Fprintln(os.Stderr, "groupscale:", err)
				os.Exit(1)
			}
			points = append(points, ps...)
		}
		ps, err := harness.RunEngineScale(harness.EngineScaleConfig{Seed: 7, Engine: harness.Engine{DES: true, Workers: *workers}}, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale:", err)
			os.Exit(1)
		}
		points = append(points, ps...)
		fmt.Print(harness.FormatEngineScale(points))
		return
	}

	if *gossipFlag {
		fmt.Println("Epidemic dissemination vs fan-out: every device in a field of")
		fmt.Println("Bluetooth-scale proximity clusters must hold each radio")
		fmt.Println("neighbor's current interest record. Fan-out re-pulls every")
		fmt.Println("neighbor's full record each round; the gossip engine pushes")
		fmt.Println("rumors that die under redundancy feedback, skips pushes covered")
		fmt.Println("by bloom have-digests, and reconciles by periodic anti-entropy —")
		fmt.Println("so its steady wire bytes per round collapse after convergence.")
		fmt.Println("Fan-out reference rows run up to 2000 devices; larger epidemic")
		fmt.Println("rows run on the discrete-event engine.")
		fmt.Println()
		const fanoutCap = 2000
		var points []harness.GossipScalePoint
		for _, n := range counts {
			if n <= fanoutCap {
				p, err := harness.RunGossipScaleMode(harness.GossipScaleConfig{Seed: 7}, n, "fanout")
				if err != nil {
					fmt.Fprintln(os.Stderr, "groupscale:", err)
					os.Exit(1)
				}
				points = append(points, p)
				p, err = harness.RunGossipScaleMode(harness.GossipScaleConfig{Seed: 7}, n, "gossip")
				if err != nil {
					fmt.Fprintln(os.Stderr, "groupscale:", err)
					os.Exit(1)
				}
				points = append(points, p)
				continue
			}
			p, err := harness.RunGossipScaleMode(harness.GossipScaleConfig{Seed: 7, Engine: harness.Engine{DES: true, Workers: *workers}}, n, "gossip")
			if err != nil {
				fmt.Fprintln(os.Stderr, "groupscale:", err)
				os.Exit(1)
			}
			points = append(points, p)
		}
		fmt.Print(harness.FormatGossipScale(points))
		return
	}

	if *dtnFlag {
		fmt.Println("Store-carry-forward delivery over sparse mobility: communities")
		fmt.Println("sit far outside each other's radio range and couriers (buses on")
		fmt.Println("a line, students on a campus grid) are the only inter-community")
		fmt.Println("path. Epidemic spray hands out bounded copy budgets to whoever")
		fmt.Println("it meets; the social strategy relays only through couriers that")
		fmt.Println("have shared a group with the destination — fewer copies for the")
		fmt.Println("same deliveries.")
		fmt.Println()
		points, err := harness.RunDTNScale(harness.DTNScaleConfig{Seed: 7, Engine: harness.Engine{DES: *desFlag, Workers: *workers}}, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale:", err)
			os.Exit(1)
		}
		fmt.Print(harness.FormatDTNScale(points))
		return
	}

	if *overload {
		fmt.Println("Graceful degradation under overload: every server runs with a")
		fmt.Println("small explicit admission capacity (8 sessions, queue depth 16);")
		fmt.Println("a load generator offers 1×–10× that capacity in raw sessions")
		fmt.Println("against one hot server while an observer keeps refreshing its")
		fmt.Println("groups. Fresh arrivals beyond capacity queue up to the bound and")
		fmt.Println("are then shed with BUSY; the observer's established sessions keep")
		fmt.Println("service, so its steady round stays bounded at every offered load.")
		fmt.Println()
		if *desFlag {
			fmt.Println("(-des: offered sessions and the servers run as event chains on")
			fmt.Println("the discrete-event engine; the observer stays the blocking client.)")
			fmt.Println()
		}
		points, err := harness.RunOverload(harness.OverloadConfig{Devices: counts, Engine: harness.Engine{DES: *desFlag, Workers: *workers}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale:", err)
			os.Exit(1)
		}
		fmt.Print(harness.FormatOverload(points))
		return
	}

	if *delta {
		fmt.Println("Delta-synchronized group rounds: one client refreshing its")
		fmt.Println("groups against n neighbors, cold (empty cache, full interest")
		fmt.Println("lists on the wire) vs steady state (epoch-primed cache,")
		fmt.Println("NOT_MODIFIED answers, group rebuild skipped).")
		fmt.Println()
		if *desFlag {
			fmt.Println("(-des: the transport rides the discrete-event engine; the")
			fmt.Println("measured client stays the blocking differential oracle.)")
			fmt.Println()
		}
		points, err := harness.RunDeltaScaleConfig(harness.DeltaScaleConfig{
			Scale: vtime.NewScale(1e-4), Engine: harness.Engine{DES: *desFlag, Workers: *workers},
		}, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale:", err)
			os.Exit(1)
		}
		fmt.Print(harness.FormatDeltaScale(points))
		return
	}

	if *substrate {
		fmt.Println("Substrate neighbor-query scaling: per-query cost of one")
		fmt.Println("neighborhood discovery (Bluetooth, constant density), spatial")
		fmt.Println("grid index vs the brute-force per-pair oracle.")
		fmt.Println()
		points, err := harness.RunNeighborScale(counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groupscale:", err)
			os.Exit(1)
		}
		fmt.Print(harness.FormatNeighborScale(points))
		return
	}

	fmt.Println("Dynamic group discovery scaling (the thesis's proposed future work):")
	fmt.Println("cold-start search time as the neighborhood grows. The 10.24 s")
	fmt.Println("Bluetooth inquiry dominates; the per-peer gathering cost is small.")
	fmt.Println()
	points, err := harness.RunDiscoveryScale(vtime.NewScale(*scale), counts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupscale:", err)
		os.Exit(1)
	}
	fmt.Print(harness.FormatDiscoveryScale(points))

	if !*churn {
		return
	}
	fmt.Println()
	fmt.Println("Group churn vs. walking speed (membership events per modeled")
	fmt.Println("minute around a stationary observer — the 'instantaneous social")
	fmt.Println("network' property):")
	fmt.Println()
	churnPoints, err := harness.RunChurn(harness.ChurnConfig{Scale: vtime.NewScale(*scale)}, []float64{0, 0.5, 1.5, 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupscale:", err)
		os.Exit(1)
	}
	fmt.Print(harness.FormatChurn(churnPoints))
}
