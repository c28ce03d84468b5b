//go:build race

package server

// raceEnabled: the race detector drops a share of sync.Pool puts, so
// allocation counts of pooled paths are not the program's own.
const raceEnabled = true
