// Command perfbench is the repository's benchmark. It runs one seeded
// workload — discovery, community or courier — against the public
// APIs of the simulator's layers, checks the outputs against oracles,
// and prints one JSON result line: the end-to-end metrics, or with
// --trace 1 the per-layer ledger from a traced run. README.md defines
// the workloads and every metric.
//
//	go run . --workload discovery --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark input family. run executes one episode
// from the seed: set-up, the timed rounds and the oracles, or with
// setupOnly just the set-up. check is true for the first episode of a
// run, the seed-exactness reference; discovery runs it on a single DES
// worker so every run cross-checks the trace hash across worker counts.
type workload struct {
	name string
	run  func(seed int64, tr *tracer, check, setupOnly bool) (*episode, error)
}

var workloads = []workload{
	{"discovery", func(seed int64, tr *tracer, check, setupOnly bool) (*episode, error) {
		cfg := discoveryDefaults
		if check {
			cfg.Workers = 1
		}
		return runDiscovery(cfg, seed, tr, setupOnly)
	}},
	{"community", func(seed int64, tr *tracer, _, setupOnly bool) (*episode, error) {
		return runCommunity(communityDefaults, seed, tr, setupOnly)
	}},
	{"courier", func(seed int64, tr *tracer, _, setupOnly bool) (*episode, error) {
		return runCourier(courierDefaults, seed, tr, setupOnly)
	}},
}

// An untraced run times at least setupSamples set-ups, and keeps adding
// more until they total setupSeconds or number maxSetupSamples, so a
// cheap set-up's median rests on many samples. Set-ups beyond the timed
// episodes' own are built and torn down without running rounds.
const (
	setupSamples    = 9
	maxSetupSamples = 31
	setupSeconds    = 1.0
)

// episode is one replay of a workload from its seed.
type episode struct {
	setup lap
	// windows split the timed phase into consecutive slices — a round, or
	// on discovery a stretch of virtual time — that are the same work in
	// every episode of a seed; timed is their summed wall time.
	windows   []lap
	timed     time.Duration
	devRounds int
	// executors is how many goroutines execute the timed rounds (the DES
	// worker count for discovery, 1 for the goroutine-driven loops).
	executors int
	events    uint64
	attempted int
	failed    int
	modeled   modeled
	// counters are seed-exact per-layer metrics read from the layers'
	// counters before and after the timed phase.
	counters    map[string]float64
	runtime     runtimeStats
	fingerprint uint64
	oracle      error
	ledger      *ledger
}

// modeled holds the end-to-end statistics of the simulated world; each
// is a pure function of the seed.
type modeled struct {
	wireBytesPerDevRound float64
	deliveryRatio        float64
	copiesPerDelivered   float64
	deliveryRoundsP50    float64
}

func (e *episode) rate() float64 { return float64(e.devRounds) / e.timed.Seconds() }

// window closes the current timed window and opens the next one.
func (e *episode) window(sw *stopwatch) {
	l := sw.lap()
	e.windows = append(e.windows, l)
	e.timed += l.wall
}

// throughput is the device-rounds of one episode over the sum, window
// by window, of the median window time across the episodes. A burst of
// host noise slows a few windows of one episode, and the per-window
// median drops it, where a per-episode median would have to drop the
// whole episode. Normalised, each episode's windows are scaled by
// refProbe over the median of the episode's probes: the windows share
// one host-speed estimate, so one noisy probe does not skew its window.
func throughput(eps []*episode, normalised bool) float64 {
	scale := make([]float64, len(eps))
	for i, ep := range eps {
		scale[i] = 1
		if normalised {
			scale[i] = float64(refProbe) / float64(ep.probe())
		}
	}
	var total float64
	for w := range eps[0].windows {
		var ts []float64
		for i, ep := range eps {
			if w < len(ep.windows) {
				ts = append(ts, ep.windows[w].wall.Seconds()*scale[i])
			}
		}
		total += median(ts)
	}
	return float64(eps[0].devRounds) / total
}

// probe is the median probe time around the episode's windows.
func (e *episode) probe() time.Duration {
	var ps []float64
	for _, l := range e.windows {
		ps = append(ps, float64(l.probe))
	}
	return time.Duration(median(ps))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fingerprint hashes everything an episode must reproduce exactly.
func fingerprint(ep *episode, extra ...uint64) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	m := ep.modeled
	for _, v := range []float64{m.wireBytesPerDevRound, m.deliveryRatio, m.copiesPerDelivered, m.deliveryRoundsP50} {
		put(math.Float64bits(v))
	}
	put(uint64(ep.devRounds))
	put(uint64(len(ep.windows)))
	put(uint64(ep.attempted))
	put(uint64(ep.failed))
	keys := make([]string, 0, len(ep.counters))
	for k := range ep.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		put(math.Float64bits(ep.counters[k]))
	}
	for _, v := range extra {
		put(v)
	}
	return h.Sum64()
}

// settle collects the set-up's garbage before the timed phase starts,
// so the timed phase neither pays for set-up's collections nor starts
// from a heap whose size depends on when the last one ran.
func settle() { runtime.GC() }

// describe prints what the fingerprint covers, for drift reports.
func (e *episode) describe() string {
	keys := make([]string, 0, len(e.counters))
	for k := range e.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("modeled %+v attempted %d failed %d", e.modeled, e.attempted, e.failed)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%v", k, e.counters[k])
	}
	return s
}

// runtimeStats are Go runtime figures over the timed phase.
type runtimeStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	goroutinesPeak  int
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

func (r runtimeStats) since(before runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes: r.allocBytes - before.allocBytes,
		gcCPU:      r.gcCPU - before.gcCPU,
		totalCPU:   r.totalCPU - before.totalCPU,
	}
}

// measurement is every episode of one run: the checking episode (also
// the warm-up, excluded from timings), the untraced timed episodes and
// the traced ones.
type measurement struct {
	check  *episode
	plain  []*episode
	traced []*episode
	setups []lap
}

// setupWall is the set-ups' summed wall time.
func (m *measurement) setupWall() float64 {
	t := 0.0
	for _, l := range m.setups {
		t += l.wall.Seconds()
	}
	return t
}

// setupTime is the median set-up time, normalised by the median of
// every probe the run took: set-ups are short and scattered through
// the run, so the run's speed estimate is steadier than the two probes
// around each one.
func (m *measurement) setupTime() float64 {
	var walls, probes []float64
	for _, l := range m.setups {
		walls = append(walls, l.wall.Seconds())
		probes = append(probes, float64(l.probe))
	}
	for _, ep := range m.plain {
		for _, l := range ep.windows {
			probes = append(probes, float64(l.probe))
		}
	}
	return median(walls) * float64(refProbe) / median(probes)
}

func (m *measurement) all() []*episode {
	return append(append([]*episode{m.check}, m.plain...), m.traced...)
}

// measure runs episodes until the run, checking episode included, has
// used the budget of wall time. An untraced run needs three timed
// episodes; a traced run alternates traced and untraced episodes, at
// least one of each.
func measure(w workload, seed int64, budget time.Duration, trace bool, log io.Writer) (*measurement, error) {
	m := &measurement{}
	begin := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = newTracer(i)
		}
		ep, err := w.run(seed, tr, i == 0, false)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, i, err)
		}
		switch {
		case i == 0:
			m.check = ep
		case tr != nil:
			ep.ledger = tr.reduce()
			m.traced = append(m.traced, ep)
		default:
			m.plain = append(m.plain, ep)
			m.setups = append(m.setups, ep.setup)
		}
		dropWorld()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(log, "%s episode %d traced=%v: setup %.3fs timed %.3fs in %d windows, %.0f dev-rounds/s (%.0f normalised), probe %.2f ms; after teardown %d goroutines, %.1f MiB heap\n",
			w.name, i, ep.ledger != nil, ep.setup.wall.Seconds(), ep.timed.Seconds(), len(ep.windows), ep.rate(), throughput([]*episode{ep}, true),
			ep.probe().Seconds()*1000, runtime.NumGoroutine(), float64(ms.HeapAlloc)/(1<<20))
		enough := len(m.plain) >= 3
		if trace {
			enough = len(m.plain) >= 1 && len(m.traced) >= 1
		}
		if enough && time.Since(begin) >= budget {
			break
		}
	}
	for !trace && (len(m.setups) < setupSamples || m.setupWall() < setupSeconds && len(m.setups) < maxSetupSamples) {
		ep, err := w.run(seed, nil, false, true)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, ep.setup)
		dropWorld()
	}
	return m, nil
}

// dropWorld frees the last episode's world before the next one is
// built, so peak memory is one world's, not the sum. It takes two
// collections: objects parked in a sync.Pool survive the first one in
// the pool's victim cache, and through them the whole world.
func dropWorld() {
	runtime.GC()
	debug.FreeOSMemory()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// verdict applies the oracles and the seed-exactness check to every
// episode of the run.
func verdict(m *measurement, log io.Writer) bool {
	ok := true
	for i, ep := range m.all() {
		if ep.oracle != nil {
			fmt.Fprintf(log, "oracle failed in episode %d: %v\n", i, ep.oracle)
			ok = false
		}
		if ep.fingerprint != m.check.fingerprint {
			fmt.Fprintf(log, "seed drift: episode %d fingerprint %x, first episode %x\n  episode %d: %s\n  episode 0: %s\n",
				i, ep.fingerprint, m.check.fingerprint, i, ep.describe(), m.check.describe())
			ok = false
		}
	}
	return ok
}

func endToEnd(m *measurement) map[string]float64 {
	md := m.check.modeled
	return map[string]float64{
		"dev_rounds_per_s":         throughput(m.plain, true),
		"setup_s":                  m.setupTime(),
		"peak_rss_mb":              peakRSSMiB(),
		"wire_bytes_per_dev_round": md.wireBytesPerDevRound,
		"delivery_ratio":           md.deliveryRatio,
		"copies_per_delivered":     md.copiesPerDelivered,
		"delivery_rounds_p50":      md.deliveryRoundsP50,
	}
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "discovery, community, courier, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "wall seconds of episodes to run, before the extra set-ups")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload discovery|community|courier|all, --seconds > 0, --trace 0|1\n")
		return 2
	}
	m, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: verdict(m, stderr), Attempted: m.check.attempted, Failed: m.check.failed}
	defs, vals := endToEndDefs, endToEnd(m)
	if *trace == 1 {
		defs, vals = perLayerDefs, perLayer(m)
		printLedger(stderr, w.name, vals)
	}
	res.Metrics = make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, and forwards their result lines.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else {
				code = 1
			}
		}
	}
	return code
}
