//go:build race

package framework

// raceEnabled: under -race sync.Pool drops a share of what it is given,
// so allocation counts are not the program's.
const raceEnabled = true
