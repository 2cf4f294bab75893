// Package testutil provides shared test infrastructure. Its centerpiece
// is a goroutine-leak checker: the simulator spawns a pump, a watchdog
// and server goroutines per connection, and a test that returns while
// any of them is still running has failed to tear its world down — the
// next test inherits the stragglers and timing becomes load-dependent,
// exactly what the determinism invariants forbid.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakSettleTimeout bounds how long VerifyTestMain waits for goroutines
// started by tests to finish after m.Run returns. Teardown is
// asynchronous in places (pumps notice closed channels, watchdogs
// observe dead links), so a short grace period is part of the contract.
const leakSettleTimeout = 5 * time.Second

// VerifyTestMain runs the package's tests and then fails the run if
// goroutines created during the tests are still alive. Wire it in as:
//
//	func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
//
// The check snapshots runtime.Stack before the run and diffs against it
// afterwards, retrying until leakSettleTimeout so asynchronous teardown
// can finish. It only turns a passing run into a failure — a run that
// already failed keeps its exit code and skips the check.
func VerifyTestMain(m *testing.M) {
	baseline := goroutineIDs(stacks())
	code := m.Run()
	if code == 0 {
		if leaked := waitSettled(baseline); leaked != "" {
			fmt.Fprintf(os.Stderr, "testutil: goroutine leak after tests:\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// CheckNoLeaks fails t if goroutines outlive the function it is
// deferred from. Use it for single tests that need a tighter net than
// the package-level TestMain diff:
//
//	defer testutil.CheckNoLeaks(t, testutil.Snapshot())
func CheckNoLeaks(t *testing.T, baseline map[string]bool) {
	t.Helper()
	if leaked := waitSettled(baseline); leaked != "" {
		t.Errorf("goroutine leak:\n%s", leaked)
	}
}

// Snapshot captures the identities of the goroutines currently alive.
func Snapshot() map[string]bool {
	return goroutineIDs(stacks())
}

// GoroutinesAbove reports how many goroutines are alive beyond base, a
// runtime.NumGoroutine reading, once goroutines on their way out have
// gone: a worker pool's goroutines signal their WaitGroup just before
// they return, so a count taken as the pool's owner returns can still
// include them. It waits at most leakSettleTimeout.
func GoroutinesAbove(base int) int {
	deadline := time.Now().Add(leakSettleTimeout) //phvet:ignore walltime settling races real goroutine exit, not simulated time
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) { //phvet:ignore walltime
			return n
		}
		time.Sleep(time.Millisecond) //phvet:ignore walltime
	}
}

// waitSettled polls until no leaked goroutines remain or the settle
// timeout expires, returning the formatted stacks of the stragglers.
func waitSettled(baseline map[string]bool) string {
	deadline := time.Now().Add(leakSettleTimeout) //phvet:ignore walltime leak detection races real teardown, not simulated time
	for {
		leaked := leakedStacks(baseline)
		if len(leaked) == 0 {
			return ""
		}
		if time.Now().After(deadline) { //phvet:ignore walltime
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond) //phvet:ignore walltime
	}
}

// leakedStacks returns the stack blocks of goroutines that are neither
// in the baseline nor recognizably part of the runtime/testing
// machinery.
func leakedStacks(baseline map[string]bool) []string {
	var leaked []string
	for _, g := range splitStacks(stacks()) {
		if baseline[goroutineID(g)] || benign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// benignMarkers identify goroutines owned by the runtime, the testing
// framework, or the race detector rather than by code under test.
var benignMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests",
	"testutil.VerifyTestMain",
	"runtime.MHeap_Scavenger",
	"runtime.goexit",
	"runtime/trace.Start",
	"signal.signal_recv",
	"os/signal.loop",
	"runtime.ReadTrace",
	"time.goFunc", // expiring time.AfterFunc bodies
}

func benign(stack string) bool {
	// The first line is "goroutine N [state]:"; a goroutine that shows
	// nothing but runtime frames below it is the runtime's own.
	for _, m := range benignMarkers {
		if strings.Contains(stack, m) {
			return true
		}
	}
	return false
}

// stacks returns the full stack dump of every goroutine.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// splitStacks cuts a runtime.Stack(all=true) dump into per-goroutine
// blocks.
func splitStacks(dump []byte) []string {
	var blocks []string
	for _, b := range strings.Split(string(dump), "\n\n") {
		if strings.HasPrefix(b, "goroutine ") {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// goroutineID extracts the "goroutine N" prefix identifying one block.
func goroutineID(block string) string {
	if i := strings.Index(block, " ["); i > 0 {
		return block[:i]
	}
	return block
}

// goroutineIDs collects the IDs present in a dump.
func goroutineIDs(dump []byte) map[string]bool {
	ids := make(map[string]bool)
	for _, g := range splitStacks(dump) {
		ids[goroutineID(g)] = true
	}
	return ids
}
