package ir

import "fmt"

// ReplaceBody transplants donor's blocks into m, preserving m's identity
// (the *Method pointer every analysis artifact keys on). It is the
// mechanism behind incremental re-analysis (internal/incremental): a
// changed body is spliced into the already-analyzed program instead of
// re-parsing it into a new one.
//
// Each donor block may extend or truncate the old block's statement
// list, as long as the block graph is unchanged (same block count, same
// successor edges) and no old allocation site is lost. A donor New
// positioned over an old New keeps the old Site id, so pointer results
// that name old site ids remain valid; a donor New anywhere else (an
// insertion) gets Site reset to -1 so a subsequent Program.Finalize
// assigns it a fresh id (donor programs are finalized independently, so
// their raw Site ids can collide with m's program). An old New with no
// donor New at its index is an error: retained pointer facts name that
// site, and dropping it silently would corrupt them.
//
// ReplaceBody enforces only structural compatibility. Whether the
// drifted statements are semantically safe to splice (no flow into
// already-solved keys) is the caller's planner's job — see
// internal/incremental's edit gate. Returns an error and leaves m
// untouched when the structure disagrees. On success m's class is
// pending for the next Program.Finalize, which numbers the inserted
// sites.
func (m *Method) ReplaceBody(donor *Method) error {
	if len(donor.Blocks) != len(m.Blocks) {
		return fmt.Errorf("ir: ReplaceBody %s: block count %d != %d",
			m.QualifiedName(), len(donor.Blocks), len(m.Blocks))
	}
	for bi, ob := range m.Blocks {
		nb := donor.Blocks[bi]
		if len(nb.Succs) != len(ob.Succs) {
			return fmt.Errorf("ir: ReplaceBody %s: block %d succ count mismatch",
				m.QualifiedName(), bi)
		}
		for i, s := range ob.Succs {
			if nb.Succs[i] != s {
				return fmt.Errorf("ir: ReplaceBody %s: block %d succs differ",
					m.QualifiedName(), bi)
			}
		}
		for si, os := range ob.Stmts {
			if _, ok := os.(*New); !ok {
				continue
			}
			if si >= len(nb.Stmts) {
				return fmt.Errorf("ir: ReplaceBody %s: block %d stmt %d drops allocation site",
					m.QualifiedName(), bi, si)
			}
			if _, ok := nb.Stmts[si].(*New); !ok {
				return fmt.Errorf("ir: ReplaceBody %s: block %d stmt %d drops allocation site",
					m.QualifiedName(), bi, si)
			}
		}
	}
	for bi, ob := range m.Blocks {
		nb := donor.Blocks[bi]
		nb.Index = bi
		for si, ns := range nb.Stmts {
			if nn, ok := ns.(*New); ok {
				nn.Site = -1 // fresh site unless matched below
				if si < len(ob.Stmts) {
					if on, ok := ob.Stmts[si].(*New); ok {
						nn.Site = on.Site
					}
				}
			}
		}
		m.Blocks[bi] = nb
	}
	m.Class.markPending()
	return nil
}
