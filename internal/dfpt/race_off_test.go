//go:build !race

package dfpt

const raceEnabled = false
