//go:build race

package incremental_test

// The race detector slows generation and fingerprinting ~10×; one seed
// of the ten-fold family keeps the check under a few seconds there.
func init() { tenfoldSeeds = 1 }
