package main

import _ "embed"

// goldenPaper20 pins the paper20 verdict table: one verdictRow per app,
// recorded with `perfbench --workload paper20 --record`.
//
//go:embed testdata/paper20.tsv
var goldenPaper20 string

// goldenStreamSmall pins the stream-small verdict-table digest per
// corpus seed, recorded with `perfbench --workload stream-small --seed N
// --record`.
//
//go:embed testdata/stream-small.tsv
var goldenStreamSmall string
