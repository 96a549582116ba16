//go:build !race

package raman

const raceEnabled = false
