//go:build race

package core_test

// The race detector multiplies table2-x10's seconds-long analyses ten
// times over and finds nothing in them that the smaller families do not
// exercise, so TestKeyEqualMeansSameReport leaves that family out under
// it.
func init() { keySkipFamily = "table2-x10" }
