//go:build race

package farm

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random on purpose, so allocation bounds that rest on the
// pooled gzip writers and the engine's core pools do not hold.
const raceEnabled = true
