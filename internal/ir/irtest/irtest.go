// Package irtest holds checks on finalized programs that tests across
// the module share. Nothing outside _test.go files imports it.
package irtest

import (
	"fmt"

	"sierra/internal/ir"
)

// CheckSites reports the first allocation-site defect in p: a New that
// Finalize left unnumbered (Site < 0), an id outside
// [0, p.NumAllocSites()), or two News holding one id. Finalize walks
// only the classes changed since its last run, so a New that gains
// Site -1 anywhere else shows up here.
func CheckSites(p *ir.Program) error {
	owner := map[int]ir.Pos{}
	for _, c := range p.Classes() {
		for _, m := range c.MethodsSorted() {
			for bi, blk := range m.Blocks {
				for si, s := range blk.Stmts {
					n, ok := s.(*ir.New)
					if !ok {
						continue
					}
					pos := ir.Pos{Method: m, Block: bi, Index: si}
					switch prev, dup := owner[n.Site]; {
					case n.Site < 0:
						return fmt.Errorf("%v: %v has no allocation site", pos, n)
					case n.Site >= p.NumAllocSites():
						return fmt.Errorf("%v: site %d beyond NumAllocSites %d", pos, n.Site, p.NumAllocSites())
					case dup:
						return fmt.Errorf("%v: site %d already numbers %v", pos, n.Site, prev)
					}
					owner[n.Site] = pos
				}
			}
		}
	}
	return nil
}
