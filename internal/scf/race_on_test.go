//go:build race

package scf

// raceEnabled: the race detector's instrumentation allocates, so allocation
// ceilings only hold without it.
const raceEnabled = true
