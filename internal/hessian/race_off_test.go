//go:build !race

package hessian

const raceEnabled = false
