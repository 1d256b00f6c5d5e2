//go:build !race

package diffsim

const raceEnabled = false
