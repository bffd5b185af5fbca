//go:build !race

package framework

const raceEnabled = false
