//go:build race

package diffsim

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random on purpose, so allocation bounds that rest on the
// reference, core and page pools do not hold.
const raceEnabled = true
