//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in; the
// allocation assertions skip under it (the race runtime allocates).
const raceEnabled = true
