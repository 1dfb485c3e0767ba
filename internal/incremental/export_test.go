package incremental

import "sierra/internal/apk"

// DiffReference describes the first digest on which Compute and the
// reference fingerprint (fingerprint_reference_test.go) disagree on
// app, or returns "".
var DiffReference = diffReference

// PlanReference plans base → next from reference fingerprints.
func PlanReference(base, next *apk.App) Plan {
	return planReference(computeReference(base), computeReference(next))
}
