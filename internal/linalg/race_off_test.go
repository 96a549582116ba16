//go:build !race

package linalg_test

const raceEnabled = false
