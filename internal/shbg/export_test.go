package shbg

import (
	"sierra/internal/actions"
	"sierra/internal/pointer"
)

// DiffRulesReference builds reg's graph with the spawn index and with
// the n² reference rules and describes their first difference ("" when
// none): the bridge TestRulesMatchReference, an external test so that it
// can drive warm applies, uses.
func DiffRulesReference(reg *actions.Registry, res *pointer.Result, opts Options) string {
	return diffRules(Build(reg, res, opts), buildReference(reg, res, opts))
}

// DiffRederiveReference is DiffRulesReference for Rebuild's restricted
// re-derivation of prev's dirty pairs.
func DiffRederiveReference(prev *Graph, reg *actions.Registry, res *pointer.Result, opts Options, dirty map[int]bool) string {
	return diffRules(rederive(prev, reg, res, opts, dirty), rederiveReference(prev, reg, res, opts, dirty))
}

// PostFanApp is postFanApp, the fixture on which rules 4 and 5 order
// every pair of k posts.
var PostFanApp = postFanApp
