//go:build race

package reader

// raceEnabled: the race detector's instrumentation allocates on its
// own schedule, so allocation counts are compared only without it.
const raceEnabled = true
