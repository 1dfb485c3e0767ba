package ir

import "fmt"

// MethodBuilder assembles a Method's CFG. Blocks are created explicitly;
// statements append to the current block. The builder enforces the block
// invariants (If/Return terminate a block; Goto sets the sole successor),
// which keeps hand-written app models and the corpus generator honest.
type MethodBuilder struct {
	m      *Method
	cur    *Block
	sealed map[*Block]bool
	nstar  int
}

// NewMethodBuilder starts building an instance method. The receiver "this"
// is implicit and not listed in params.
func NewMethodBuilder(name string, params ...string) *MethodBuilder {
	m := &Method{Name: name, Params: params}
	b := &MethodBuilder{m: m, sealed: make(map[*Block]bool)}
	b.cur = b.NewBlock()
	return b
}

// NewStaticMethodBuilder starts building a static method (no receiver).
func NewStaticMethodBuilder(name string, params ...string) *MethodBuilder {
	b := NewMethodBuilder(name, params...)
	b.m.Static = true
	return b
}

// NewBlock creates an empty block (not yet connected) and returns it.
func (b *MethodBuilder) NewBlock() *Block {
	blk := &Block{Index: len(b.m.Blocks)}
	b.m.Blocks = append(b.m.Blocks, blk)
	return blk
}

// SetBlock directs subsequent statements into blk.
func (b *MethodBuilder) SetBlock(blk *Block) { b.cur = blk }

func (b *MethodBuilder) emit(s Stmt) {
	if b.sealed[b.cur] {
		panic(fmt.Sprintf("ir: emit into sealed block %d of %s", b.cur.Index, b.m.Name))
	}
	// Corpus generation emits millions of statements; seeding capacity
	// skips the 1→2→4 growslice churn that dominates builder profiles.
	if b.cur.Stmts == nil {
		b.cur.Stmts = make([]Stmt, 0, 8)
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

// NewObj emits dst = new cls. The allocation-site id stays -1 until
// Program.Finalize numbers it.
func (b *MethodBuilder) NewObj(dst, cls string) *MethodBuilder {
	b.emit(&New{Dst: dst, Class: cls, Site: -1})
	return b
}

// Int emits dst = v.
func (b *MethodBuilder) Int(dst string, v int64) *MethodBuilder {
	b.emit(&Const{Dst: dst, Kind: ConstInt, Int: v})
	return b
}

// Bool emits dst = v.
func (b *MethodBuilder) Bool(dst string, v bool) *MethodBuilder {
	b.emit(&Const{Dst: dst, Kind: ConstBool, Bool: v})
	return b
}

// Null emits dst = null.
func (b *MethodBuilder) Null(dst string) *MethodBuilder {
	b.emit(&Const{Dst: dst, Kind: ConstNull})
	return b
}

// Str emits dst = "v".
func (b *MethodBuilder) Str(dst, v string) *MethodBuilder {
	b.emit(&Const{Dst: dst, Kind: ConstString, Str: v})
	return b
}

// Move emits dst = src.
func (b *MethodBuilder) Move(dst, src string) *MethodBuilder {
	b.emit(&Move{Dst: dst, Src: src})
	return b
}

// Load emits dst = obj.field.
func (b *MethodBuilder) Load(dst, obj, field string) *MethodBuilder {
	b.emit(&Load{Dst: dst, Obj: obj, Field: field})
	return b
}

// Store emits obj.field = src.
func (b *MethodBuilder) Store(obj, field, src string) *MethodBuilder {
	b.emit(&Store{Obj: obj, Field: field, Src: src})
	return b
}

// SLoad emits dst = static cls.field.
func (b *MethodBuilder) SLoad(dst, cls, field string) *MethodBuilder {
	b.emit(&StaticLoad{Dst: dst, Class: cls, Field: field})
	return b
}

// SStore emits static cls.field = src.
func (b *MethodBuilder) SStore(cls, field, src string) *MethodBuilder {
	b.emit(&StaticStore{Class: cls, Field: field, Src: src})
	return b
}

// BinOp emits dst = a op c.
func (b *MethodBuilder) BinOp(dst string, op BinOpKind, a, c string) *MethodBuilder {
	b.emit(&BinOp{Dst: dst, Op: op, A: a, B: c})
	return b
}

// Call emits a virtual invocation dst = recv.method(args...). Pass dst ""
// to discard the result. cls is the static type of the receiver.
func (b *MethodBuilder) Call(dst, recv, cls, method string, args ...string) *MethodBuilder {
	b.emit(&Invoke{Kind: InvokeVirtual, Dst: dst, Recv: recv, Class: cls, Method: method, Args: args})
	return b
}

// CallStatic emits dst = cls.method(args...).
func (b *MethodBuilder) CallStatic(dst, cls, method string, args ...string) *MethodBuilder {
	b.emit(&Invoke{Kind: InvokeStatic, Dst: dst, Class: cls, Method: method, Args: args})
	return b
}

// CallSpecial emits a direct (non-virtual) call on recv — constructors and
// super calls.
func (b *MethodBuilder) CallSpecial(dst, recv, cls, method string, args ...string) *MethodBuilder {
	b.emit(&Invoke{Kind: InvokeSpecial, Dst: dst, Recv: recv, Class: cls, Method: method, Args: args})
	return b
}

// If terminates the current block with a conditional branch and returns
// the (then, else) blocks. The current block becomes the then block.
func (b *MethodBuilder) If(a string, op CmpOp, rhs Operand) (then, els *Block) {
	b.emit(&If{A: a, Op: op, B: rhs})
	then, els = b.NewBlock(), b.NewBlock()
	b.cur.Succs = []int{then.Index, els.Index}
	b.sealed[b.cur] = true
	b.cur = then
	return then, els
}

// IfStar branches nondeterministically — the "while(*)" / "switch(*)"
// idiom in the paper's generated harnesses (Fig 4). It tests a fresh,
// never-defined variable, which the symbolic executor treats as
// unconstrained.
func (b *MethodBuilder) IfStar() (then, els *Block) {
	b.nstar++
	v := fmt.Sprintf("$star%d", b.nstar)
	return b.If(v, CmpEQ, BoolOperand(true))
}

// Goto terminates the current block with an unconditional jump.
func (b *MethodBuilder) Goto(target *Block) {
	b.cur.Succs = []int{target.Index}
	b.sealed[b.cur] = true
	b.cur = target
}

// GotoNew terminates the current block with a jump to a fresh block and
// continues there.
func (b *MethodBuilder) GotoNew() *Block {
	blk := b.NewBlock()
	b.Goto(blk)
	return blk
}

// Ret terminates the current block with return src ("" for void).
func (b *MethodBuilder) Ret(src string) {
	b.emit(&Return{Src: src})
	b.sealed[b.cur] = true
}

// Build finishes the method. Any unsealed block without successors gets an
// implicit void return so every path terminates.
func (b *MethodBuilder) Build() *Method {
	for _, blk := range b.m.Blocks {
		if !b.sealed[blk] && len(blk.Succs) == 0 {
			blk.Stmts = append(blk.Stmts, &Return{})
		}
	}
	return b.m
}
