//go:build race

package harness

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random on purpose, so allocation bounds that rest on the core
// and page pools do not hold.
const raceEnabled = true
