//go:build !race

package farm

const raceEnabled = false
