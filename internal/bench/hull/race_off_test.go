//go:build !race

package hull

const raceEnabled = false
