//go:build race

package structure

// raceEnabled: the race detector's instrumentation allocates, so allocation
// ceilings only hold without it.
const raceEnabled = true
