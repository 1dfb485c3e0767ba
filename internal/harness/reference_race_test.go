//go:build race

package harness

// The reference checks run on one goroutine, so the race detector
// finds nothing in them and only multiplies their cost (several-fold on
// the ten-fold family's apps); under it they take that family at seed 0
// only.
func init() { tenfoldSeeds = 1 }
