//go:build race

package shbg_test

// The race detector slows the analysis ~10×; one seed of the ten-fold
// family keeps the check under a few seconds there.
func init() { tenfoldSeeds = 1 }
