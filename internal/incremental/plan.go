package incremental

import "sort"

// Plan is the planner's output: either an absorbable revision (OK true,
// Changed listing the edited methods and Visible the subset whose edit
// some fixpoint stage can see), or a decline with the reason the proof
// failed.
type Plan struct {
	OK bool
	// Changed lists the qualified names of methods whose bodies differ
	// (sorted). Empty with OK means the revision is body-identical.
	Changed []string
	// Visible lists the changed methods whose skeleton changed too
	// (sorted). Empty means every pre-refutation stage is reused as is;
	// otherwise the pointer, SHBG and pair stages are patched.
	Visible []string
	// Reason explains a decline or a poisoning: "shape" (declarations,
	// manifest, or layouts changed), "skeleton:<method>" (a visible edit
	// offered to the reuse-only Apply), "gate:<method>: ..." (the edit
	// gate could not prove a visible edit safe), or the runtime check
	// that failed after mutation started.
	Reason string
}

// PlanEdit decides whether next can be absorbed into a baseline with
// fingerprint base. It requires equal shapes, which pin the class,
// method and action sets (so the Methods maps have identical keys), and
// sorts each changed method into Changed, and into Visible too when its
// skeleton changed. Whether a visible edit is admissible is decided per
// method by the edit gate, which needs the parsed bodies and the
// baseline points-to result.
func PlanEdit(base, next *Fingerprint) Plan {
	if base.Shape != next.Shape {
		return Plan{Reason: "shape"}
	}
	var changed, visible []string
	for name, nfp := range next.Methods {
		bfp, ok := base.Methods[name]
		if !ok {
			// Equal shapes should make this impossible; fail closed.
			return Plan{Reason: "shape"}
		}
		if bfp.Full == nfp.Full {
			continue
		}
		changed = append(changed, name)
		if bfp.Skeleton != nfp.Skeleton {
			visible = append(visible, name)
		}
	}
	sort.Strings(changed)
	sort.Strings(visible)
	return Plan{OK: true, Changed: changed, Visible: visible}
}
