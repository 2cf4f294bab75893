//go:build !race

package dtn

// raceEnabled reports whether the race detector is instrumenting this
// build; its bookkeeping allocates, so allocation pins skip.
const raceEnabled = false
