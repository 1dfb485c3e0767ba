//go:build race

package actions

// The reference check runs on one goroutine, so the race detector finds
// nothing in it and only multiplies its cost; under it the check takes
// each scenario family at seed 0 only.
func init() { referenceSeeds = 1 }
