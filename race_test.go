//go:build race

package stackless

func init() { raceEnabled = true }
