//go:build race

package viz

func init() { raceDetector = true }
