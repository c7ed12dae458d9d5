//go:build race

package hull

const raceEnabled = true
