//go:build race

package live

// raceEnabled: the race detector drops a share of sync.Pool puts and
// allocates for its own bookkeeping, so allocation counts are not the
// program's own.
const raceEnabled = true
