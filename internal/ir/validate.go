package ir

import (
	"fmt"
	"strings"
)

// Validate checks the structural invariants analyses rely on. No class's
// superclass chain or interface graph leads back to itself (IsSubtype
// and ResolveMethod walk those edges without a visited set). For every
// non-framework class:
//
//   - successor indices are in range;
//   - an If is the last statement of its block, which has exactly two
//     successors (then, else);
//   - a Return is the last statement of its block, which has none;
//   - a block with multiple successors ends in an If (no ambiguous
//     fall-through);
//   - statements never follow a terminator.
//
// The builder maintains these by construction; Validate guards
// hand-assembled methods and parsed input.
func (p *Program) Validate() error {
	classes := p.Classes()
	if err := p.validateHierarchy(classes); err != nil {
		return err
	}
	for _, c := range classes {
		if c.Framework {
			continue
		}
		for _, m := range c.MethodsSorted() {
			if err := validateMethod(m); err != nil {
				return fmt.Errorf("%s: %w", m.QualifiedName(), err)
			}
		}
	}
	return nil
}

func validateMethod(m *Method) error {
	n := len(m.Blocks)
	for bi, blk := range m.Blocks {
		for _, s := range blk.Succs {
			if s < 0 || s >= n {
				return fmt.Errorf("block %d: successor %d out of range [0,%d)", bi, s, n)
			}
		}
		for si, s := range blk.Stmts {
			last := si == len(blk.Stmts)-1
			switch s.(type) {
			case *If:
				if !last {
					return fmt.Errorf("block %d: If at %d is not the block terminator", bi, si)
				}
				if len(blk.Succs) != 2 {
					return fmt.Errorf("block %d: If needs exactly 2 successors, has %d", bi, len(blk.Succs))
				}
			case *Return:
				if !last {
					return fmt.Errorf("block %d: statement follows Return at %d", bi, si)
				}
				if len(blk.Succs) != 0 {
					return fmt.Errorf("block %d: Return with %d successors", bi, len(blk.Succs))
				}
			}
		}
		if len(blk.Succs) > 1 {
			if len(blk.Stmts) == 0 {
				return fmt.Errorf("block %d: empty block with %d successors", bi, len(blk.Succs))
			}
			if _, ok := blk.Stmts[len(blk.Stmts)-1].(*If); !ok {
				return fmt.Errorf("block %d: multiple successors without an If terminator", bi)
			}
		}
	}
	return nil
}

// validateHierarchy walks the supertype graph — an edge from each class
// to its superclass and to each interface it implements — depth first
// from every class in name order, and reports the first cycle it meets
// as "C: cyclic type hierarchy: C extends D implements C". A name that
// is not registered ends a walk, so it cannot close a cycle. The walk
// keeps its own stack, so a deep hierarchy cannot overflow the
// goroutine's.
func (p *Program) validateHierarchy(classes []*Class) error {
	const (
		onPath = 1
		done   = 2
	)
	// frame is a class on the current path and the index of the next
	// supertype edge to follow from it.
	type frame struct {
		c    *Class
		next int
	}
	state := make(map[*Class]uint8, len(classes))
	var stack []frame
	for _, start := range classes {
		if state[start] != 0 {
			continue
		}
		state[start] = onPath
		stack = append(stack[:0], frame{c: start})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			name, _, ok := top.c.supertype(top.next)
			if !ok {
				state[top.c] = done
				stack = stack[:len(stack)-1]
				continue
			}
			top.next++
			sup := p.classes[name]
			switch {
			case sup == nil || state[sup] == done:
			case state[sup] == onPath:
				// The classes on the path are the stack's; the cycle is
				// its suffix from sup.
				i := len(stack) - 1
				for stack[i].c != sup {
					i--
				}
				var b strings.Builder
				for _, f := range stack[i:] {
					_, rel, _ := f.c.supertype(f.next - 1)
					b.WriteString(f.c.Name + " " + rel + " ")
				}
				b.WriteString(sup.Name)
				return fmt.Errorf("%s: cyclic type hierarchy: %s", sup.Name, b.String())
			default:
				state[sup] = onPath
				stack = append(stack, frame{c: sup})
			}
		}
	}
	return nil
}

// supertype returns c's i-th supertype edge: the superclass first (when
// there is one), then the interfaces in declaration order.
func (c *Class) supertype(i int) (name, rel string, ok bool) {
	if c.Super != "" {
		if i == 0 {
			return c.Super, "extends", true
		}
		i--
	}
	if i < len(c.Interfaces) {
		return c.Interfaces[i], "implements", true
	}
	return "", "", false
}
