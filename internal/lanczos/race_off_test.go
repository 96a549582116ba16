//go:build !race

package lanczos

const raceEnabled = false
