//go:build !race

package structure

const raceEnabled = false
