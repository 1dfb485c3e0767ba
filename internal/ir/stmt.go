package ir

import (
	"fmt"
	"strings"
)

// Stmt is one IR statement. All statements operate on method-local
// variables (registers); heap interaction happens only through Load/Store
// and their static counterparts, which is what makes access collection
// for race detection straightforward.
//
// A statement is a value, not a place: it holds no link to its method
// or block, so one statement object may stand at many positions (the
// app-file reader shares one object per distinct statement line other
// than new). Code that needs a statement's Pos builds it from the loop
// that found the statement. Nothing writes a statement after
// construction except New.Site, which is why allocations are never
// shared.
type Stmt interface {
	fmt.Stringer
	stmt()
}

// base marks the statement types.
type base struct{}

func (base) stmt() {}

// New allocates an instance of Class into Dst. Site is the program-unique
// allocation-site id assigned by Finalize (-1 until then); it is the
// abstract-object identity used by the pointer analysis.
type New struct {
	base
	Dst   string
	Class string
	Site  int
}

func (s *New) String() string { return fmt.Sprintf("%s = new %s", s.Dst, s.Class) }

// ConstKind discriminates constant values.
type ConstKind int

const (
	ConstInt ConstKind = iota
	ConstBool
	ConstNull
	ConstString
)

// Const loads a constant into Dst.
type Const struct {
	base
	Dst  string
	Kind ConstKind
	Int  int64
	Bool bool
	Str  string
}

func (s *Const) String() string {
	switch s.Kind {
	case ConstInt:
		return fmt.Sprintf("%s = %d", s.Dst, s.Int)
	case ConstBool:
		return fmt.Sprintf("%s = %t", s.Dst, s.Bool)
	case ConstNull:
		return s.Dst + " = null"
	default:
		return fmt.Sprintf("%s = %q", s.Dst, s.Str)
	}
}

// Move copies Src into Dst.
type Move struct {
	base
	Dst, Src string
}

func (s *Move) String() string { return s.Dst + " = " + s.Src }

// Load reads Obj.Field into Dst — a heap read access.
type Load struct {
	base
	Dst, Obj, Field string
}

func (s *Load) String() string { return fmt.Sprintf("%s = %s.%s", s.Dst, s.Obj, s.Field) }

// Store writes Src into Obj.Field — a heap write access.
type Store struct {
	base
	Obj, Field, Src string
}

func (s *Store) String() string { return fmt.Sprintf("%s.%s = %s", s.Obj, s.Field, s.Src) }

// StaticLoad reads the static field Class.Field into Dst.
type StaticLoad struct {
	base
	Dst, Class, Field string
}

func (s *StaticLoad) String() string {
	return fmt.Sprintf("%s = static %s.%s", s.Dst, s.Class, s.Field)
}

// StaticStore writes Src into static field Class.Field.
type StaticStore struct {
	base
	Class, Field, Src string
}

func (s *StaticStore) String() string {
	return fmt.Sprintf("static %s.%s = %s", s.Class, s.Field, s.Src)
}

// BinOpKind is an arithmetic/logical operator.
type BinOpKind int

const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
)

func (op BinOpKind) String() string {
	return [...]string{"+", "-", "*", "&", "|", "^"}[op]
}

// BinOp computes Dst = A op B.
type BinOp struct {
	base
	Dst  string
	Op   BinOpKind
	A, B string
}

func (s *BinOp) String() string { return fmt.Sprintf("%s = %s %s %s", s.Dst, s.A, s.Op, s.B) }

// InvokeKind distinguishes dispatch flavours. Per the paper's hybrid
// context sensitivity, virtual dispatch uses k-obj contexts while static
// invocations use k-cfa contexts.
type InvokeKind int

const (
	// InvokeVirtual dispatches on the dynamic type of Recv.
	InvokeVirtual InvokeKind = iota
	// InvokeStatic calls Class#Method directly; Recv is empty.
	InvokeStatic
	// InvokeSpecial calls Class#Method directly on Recv (constructors,
	// super calls) without dynamic dispatch.
	InvokeSpecial
)

// Invoke calls a method. Framework APIs with concurrency or GUI semantics
// (AsyncTask.execute, Handler.post, findViewById, …) appear as Invokes on
// framework classes and are recognized by the actions/frontend packages.
type Invoke struct {
	base
	Kind   InvokeKind
	Dst    string // "" when the result is unused
	Recv   string // receiver variable; "" for static
	Class  string // static type of the receiver / declaring class
	Method string
	Args   []string
}

func (s *Invoke) String() string {
	var b strings.Builder
	if s.Dst != "" {
		b.WriteString(s.Dst)
		b.WriteString(" = ")
	}
	switch s.Kind {
	case InvokeStatic:
		b.WriteString(s.Class)
	default:
		b.WriteString(s.Recv)
	}
	b.WriteByte('.')
	b.WriteString(s.Method)
	b.WriteByte('(')
	b.WriteString(strings.Join(s.Args, ", "))
	b.WriteByte(')')
	return b.String()
}

// CmpOp is a comparison operator for If conditions.
type CmpOp int

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	return [...]string{"==", "!=", "<", "<=", ">", ">="}[op]
}

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	default:
		return CmpLT
	}
}

// Operand is either a variable or a constant on the right side of a
// comparison.
type Operand struct {
	Var   string // set when IsVar
	IsVar bool
	Kind  ConstKind // valid when !IsVar
	Int   int64
	Bool  bool
}

// VarOperand wraps a variable name as an operand.
func VarOperand(v string) Operand { return Operand{Var: v, IsVar: true} }

// IntOperand wraps an integer constant.
func IntOperand(v int64) Operand { return Operand{Kind: ConstInt, Int: v} }

// BoolOperand wraps a boolean constant.
func BoolOperand(v bool) Operand { return Operand{Kind: ConstBool, Bool: v} }

// NullOperand is the null constant.
func NullOperand() Operand { return Operand{Kind: ConstNull} }

func (o Operand) String() string {
	if o.IsVar {
		return o.Var
	}
	switch o.Kind {
	case ConstInt:
		return fmt.Sprintf("%d", o.Int)
	case ConstBool:
		return fmt.Sprintf("%t", o.Bool)
	case ConstNull:
		return "null"
	default:
		return "<const>"
	}
}

// If is a block terminator comparing variable A against operand B.
// Succs[0] of the enclosing block is taken when the condition holds,
// Succs[1] otherwise. The nondeterministic-choice idiom used by harnesses
// ("while(*) switch(*)") is encoded as an If on a variable that is never
// defined — the symbolic executor treats it as unconstrained.
type If struct {
	base
	A  string
	Op CmpOp
	B  Operand
}

func (s *If) String() string { return fmt.Sprintf("if %s %s %s", s.A, s.Op, s.B) }

// Return ends the method, optionally yielding Src.
type Return struct {
	base
	Src string // "" for void
}

func (s *Return) String() string {
	if s.Src == "" {
		return "return"
	}
	return "return " + s.Src
}
