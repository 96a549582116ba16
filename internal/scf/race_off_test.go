//go:build !race

package scf

const raceEnabled = false
