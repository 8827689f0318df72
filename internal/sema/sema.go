// Package sema resolves names and checks the typing/thickness rules of
// tcf-e: flow-level control conditions must be scalar (the whole flow takes
// one path, Section 2.2), scalar targets cannot receive thick values without
// a reduction, memory variables live at word addresses, and functions are
// flow-level and non-recursive (the flow call stack stores return addresses
// only; registers are statically allocated).
package sema

import (
	"fmt"

	"tcfpram/internal/isa"
	"tcfpram/internal/lang"
)

// Kind classifies an expression's value shape.
type Kind int

const (
	// KindScalar values are flow-common.
	KindScalar Kind = iota
	// KindThick values are thread-wise (one per implicit thread).
	KindThick
	// KindVoid marks effect-only intrinsic calls.
	KindVoid
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindThick:
		return "thick"
	case KindVoid:
		return "void"
	}
	return "kind?"
}

// Sym is a resolved variable.
type Sym struct {
	Name     string
	Decl     *lang.VarDecl // nil for parameters
	Space    lang.Space
	Thick    bool
	ArrayLen int   // -1 for scalars
	Addr     int64 // memory address (Shared/Local spaces)
	IsParam  bool
	FuncName string // owning function ("" for globals)
}

// Kind returns the value kind of reading the symbol.
func (s *Sym) Kind() Kind {
	if s.Thick {
		return KindThick
	}
	return KindScalar
}

// FuncInfo carries resolved function facts.
type FuncInfo struct {
	Decl    *lang.FuncDecl
	Params  []*Sym
	Returns bool // some return carries a value
	Calls   []string
}

// Info is the analysis result consumed by codegen.
type Info struct {
	Prog  *lang.Program
	Funcs map[string]*FuncInfo
	// Syms maps every resolved *lang.Ident, *lang.Index, *lang.AddrOf and
	// *lang.VarDecl to its symbol.
	Syms map[any]*Sym
	// Kinds maps every expression to its value kind.
	Kinds map[lang.Expr]Kind
	// Data are the preloaded shared-memory segments from initializers.
	Data []DataSeg
	// LocalData are per-group local-memory preloads.
	LocalData []DataSeg
	// SharedTop is the first shared address after static allocation.
	SharedTop int64
}

// DataSeg is an initialized memory region.
type DataSeg struct {
	Addr  int64
	Words []int64
}

// Builtin identifier kinds.
var builtins = map[string]Kind{
	"tid":       KindThick,
	"fid":       KindScalar,
	"thickness": KindScalar,
	"nproc":     KindScalar,
	"ngroups":   KindScalar,
	"gid":       KindScalar,
	"pid":       KindScalar,
}

// IsBuiltinIdent reports whether name is a builtin identifier.
func IsBuiltinIdent(name string) bool {
	_, ok := builtins[name]
	return ok
}

// Intrinsic call table: name -> (argc, result kind).
type intrinsicSig struct {
	argc   int
	result Kind
}

var intrinsics = map[string]intrinsicSig{
	"mpadd": {2, KindThick}, "mpand": {2, KindThick}, "mpor": {2, KindThick},
	"mpmax": {2, KindThick}, "mpmin": {2, KindThick},
	"madd": {2, KindVoid}, "mand": {2, KindVoid}, "mor": {2, KindVoid},
	"mmax": {2, KindVoid}, "mmin": {2, KindVoid},
	"radd": {1, KindScalar}, "rand": {1, KindScalar}, "ror": {1, KindScalar},
	"rmax": {1, KindScalar}, "rmin": {1, KindScalar},
	"print": {1, KindVoid}, "prints": {1, KindVoid}, "assert": {1, KindVoid},
}

// IsIntrinsic reports whether name is an intrinsic function.
func IsIntrinsic(name string) bool {
	_, ok := intrinsics[name]
	return ok
}

// autoBase is where automatically placed shared globals start; addresses
// below are free for explicit @ bindings.
const autoBase = 8192

// Check analyzes prog.
func Check(prog *lang.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:  prog,
			Funcs: map[string]*FuncInfo{},
			Syms:  map[any]*Sym{},
			Kinds: map[lang.Expr]Kind{},
		},
		globals:   map[string]*Sym{},
		nextAddr:  autoBase,
		nextLocal: 0,
	}
	if err := c.globalsPass(); err != nil {
		return nil, err
	}
	if err := c.funcsPass(); err != nil {
		return nil, err
	}
	if err := c.recursionPass(); err != nil {
		return nil, err
	}
	c.info.SharedTop = c.nextAddr
	return c.info, nil
}

type checker struct {
	info      *Info
	globals   map[string]*Sym
	nextAddr  int64
	nextLocal int64

	// Per-function state.
	fn        *FuncInfo
	scopes    []map[string]*Sym
	loopDepth int
}

// Error is a positioned sema diagnostic. Every error returned by Check is
// one of these, so tools (tcfvet, golden renderers) can extract the source
// position with errors.As instead of parsing the message.
type Error struct {
	Pos lang.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sema: %s: %s", e.Pos, e.Msg) }

func errf(pos lang.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) globalsPass() error {
	for _, d := range c.info.Prog.Globals {
		if d.Space == lang.SpaceReg {
			return errf(d.Pos, "top-level variable %s must be shared or local", d.Name)
		}
		if d.Thick {
			return errf(d.Pos, "memory variable %s cannot be thick (thick values live in registers)", d.Name)
		}
		if _, dup := c.globals[d.Name]; dup {
			return errf(d.Pos, "duplicate global %s", d.Name)
		}
		if IsBuiltinIdent(d.Name) || IsIntrinsic(d.Name) {
			return errf(d.Pos, "%s shadows a builtin", d.Name)
		}
		words := int64(1)
		if d.ArrayLen >= 0 {
			words = int64(d.ArrayLen)
		}
		sym := &Sym{Name: d.Name, Decl: d, Space: d.Space, ArrayLen: d.ArrayLen}
		switch d.Space {
		case lang.SpaceShared:
			if d.Addr >= 0 {
				sym.Addr = d.Addr
			} else {
				sym.Addr = c.nextAddr
				c.nextAddr += words
			}
		case lang.SpaceLocal:
			if d.Addr >= 0 {
				sym.Addr = d.Addr
			} else {
				sym.Addr = c.nextLocal
				c.nextLocal += words
			}
		}
		if sym.Addr < 0 {
			return errf(d.Pos, "negative address for %s", d.Name)
		}
		// Initializers become preloaded data.
		if d.InitList != nil {
			if d.ArrayLen < 0 {
				return errf(d.Pos, "initializer list on scalar %s", d.Name)
			}
			if len(d.InitList) > d.ArrayLen {
				return errf(d.Pos, "initializer of %s has %d elements for length %d", d.Name, len(d.InitList), d.ArrayLen)
			}
			seg := DataSeg{Addr: sym.Addr, Words: append([]int64(nil), d.InitList...)}
			if d.Space == lang.SpaceShared {
				c.info.Data = append(c.info.Data, seg)
			} else {
				c.info.LocalData = append(c.info.LocalData, seg)
			}
		} else if d.InitExpr != nil {
			v, ok := constFold(d.InitExpr)
			if !ok {
				return errf(d.Pos, "global initializer of %s must be constant", d.Name)
			}
			seg := DataSeg{Addr: sym.Addr, Words: []int64{v}}
			if d.Space == lang.SpaceShared {
				c.info.Data = append(c.info.Data, seg)
			} else {
				c.info.LocalData = append(c.info.LocalData, seg)
			}
		}
		c.globals[d.Name] = sym
		c.info.Syms[d] = sym
	}
	return nil
}

// constFold evaluates constant expressions (literals, unary minus/not,
// binary arithmetic on constants).
func constFold(e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Val, true
	case *lang.Unary:
		v, ok := constFold(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case lang.TokMinus:
			return -v, true
		case lang.TokTilde:
			return ^v, true
		case lang.TokBang:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *lang.Binary:
		a, ok1 := constFold(e.X)
		b, ok2 := constFold(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case lang.TokPlus:
			return a + b, true
		case lang.TokMinus:
			return a - b, true
		case lang.TokStar:
			return a * b, true
		case lang.TokSlash:
			if b == 0 {
				return 0, true
			}
			return a / b, true
		case lang.TokPercent:
			if b == 0 {
				return 0, true
			}
			return a % b, true
		// Shifts clamp to [0,63], matching the machine ALU.
		case lang.TokShl:
			return a << isa.ClampShift(b), true
		case lang.TokShr:
			return a >> isa.ClampShift(b), true
		}
	}
	return 0, false
}

func (c *checker) funcsPass() error {
	seen := map[string]bool{}
	for _, fn := range c.info.Prog.Funcs {
		if seen[fn.Name] {
			return errf(fn.Pos, "duplicate function %s", fn.Name)
		}
		seen[fn.Name] = true
		if IsIntrinsic(fn.Name) || IsBuiltinIdent(fn.Name) {
			return errf(fn.Pos, "function %s shadows a builtin", fn.Name)
		}
		fi := &FuncInfo{Decl: fn}
		for _, p := range fn.Params {
			fi.Params = append(fi.Params, &Sym{Name: p, ArrayLen: -1, IsParam: true, FuncName: fn.Name})
		}
		c.info.Funcs[fn.Name] = fi
	}
	if _, ok := c.info.Funcs["main"]; !ok {
		return errf(lang.Pos{Line: 1, Col: 1}, "program has no main function")
	}
	if len(c.info.Funcs["main"].Params) != 0 {
		return errf(c.info.Funcs["main"].Decl.Pos, "main takes no parameters")
	}
	// Pre-pass: a function "returns a value" if any of its returns carries
	// one; calls must see this regardless of declaration order.
	for _, fn := range c.info.Prog.Funcs {
		c.info.Funcs[fn.Name].Returns = hasValueReturn(fn.Body)
	}
	for _, fn := range c.info.Prog.Funcs {
		fi := c.info.Funcs[fn.Name]
		c.fn = fi
		c.scopes = []map[string]*Sym{{}}
		for _, p := range fi.Params {
			if _, dup := c.scopes[0][p.Name]; dup {
				return errf(fn.Pos, "duplicate parameter %s", p.Name)
			}
			if IsBuiltinIdent(p.Name) || IsIntrinsic(p.Name) {
				return errf(fn.Pos, "parameter %s shadows a builtin", p.Name)
			}
			c.scopes[0][p.Name] = p
		}
		if err := c.stmt(fn.Body); err != nil {
			return err
		}
	}
	return nil
}

// recursionPass rejects call cycles: the flow call stack stores return
// addresses only, so registers are statically allocated and recursion would
// clobber them.
func (c *checker) recursionPass() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return errf(c.info.Funcs[name].Decl.Pos, "recursive call cycle through %s (recursion is not supported: registers are statically allocated)", name)
		case black:
			return nil
		}
		color[name] = gray
		for _, callee := range c.info.Funcs[name].Calls {
			if err := visit(callee); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for name := range c.info.Funcs {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// hasValueReturn walks a statement tree looking for "return expr;".
func hasValueReturn(s lang.Stmt) bool {
	switch s := s.(type) {
	case *lang.ReturnStmt:
		return s.X != nil
	case *lang.BlockStmt:
		for _, sub := range s.Stmts {
			if hasValueReturn(sub) {
				return true
			}
		}
	case *lang.IfStmt:
		if hasValueReturn(s.Then) {
			return true
		}
		if s.Else != nil && hasValueReturn(s.Else) {
			return true
		}
	case *lang.WhileStmt:
		return hasValueReturn(s.Body)
	case *lang.ForStmt:
		return hasValueReturn(s.Body)
	case *lang.ParallelStmt:
		for _, arm := range s.Arms {
			if hasValueReturn(arm.Body) {
				return true
			}
		}
	}
	return false
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Sym{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *Sym {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.globals[name]
}

func (c *checker) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.BlockStmt:
		c.pushScope()
		defer c.popScope()
		for _, sub := range s.Stmts {
			if err := c.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *lang.VarDecl:
		return c.localDecl(s)
	case *lang.AssignStmt:
		return c.assign(s)
	case *lang.ExprStmt:
		if _, ok := s.X.(*lang.Call); !ok {
			return errf(s.Pos, "expression statement must be a call")
		}
		_, err := c.expr(s.X)
		return err
	case *lang.IfStmt:
		if err := c.scalarCond(s.Cond, "if"); err != nil {
			return err
		}
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *lang.WhileStmt:
		if err := c.scalarCond(s.Cond, "while"); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(s.Body)
	case *lang.ForStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.scalarCond(s.Cond, "for"); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.stmt(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(s.Body)
	case *lang.ParallelStmt:
		for _, arm := range s.Arms {
			k, err := c.expr(arm.Thick)
			if err != nil {
				return err
			}
			if k != KindScalar {
				return errf(arm.Pos, "parallel arm thickness must be scalar")
			}
			c.pushScope()
			// Arms run as separate flows: a surrounding loop's break/
			// continue cannot cross the split.
			saved := c.loopDepth
			c.loopDepth = 0
			err = c.stmt(arm.Body)
			c.loopDepth = saved
			c.popScope()
			if err != nil {
				return err
			}
		}
		return nil
	case *lang.ThickStmt:
		return c.scalarCond(s.X, "thickness statement")
	case *lang.NumaStmt:
		return c.scalarCond(s.X, "NUMA statement")
	case *lang.BarrierStmt, *lang.HaltStmt:
		return nil
	case *lang.SwitchStmt:
		if err := c.scalarCond(s.Subject, "switch"); err != nil {
			return err
		}
		sawDefault := false
		for _, cs := range s.Cases {
			if cs.Values == nil {
				if sawDefault {
					return errf(cs.Pos, "duplicate default case")
				}
				sawDefault = true
			}
			for _, v := range cs.Values {
				k, err := c.expr(v)
				if err != nil {
					return err
				}
				if k != KindScalar {
					return errf(v.GetPos(), "switch case value must be scalar")
				}
			}
			c.pushScope()
			for _, sub := range cs.Body {
				if err := c.stmt(sub); err != nil {
					c.popScope()
					return err
				}
			}
			c.popScope()
		}
		return nil
	case *lang.BreakStmt:
		if c.loopDepth == 0 {
			return errf(s.Pos, "break outside a loop")
		}
		return nil
	case *lang.ContinueStmt:
		if c.loopDepth == 0 {
			return errf(s.Pos, "continue outside a loop")
		}
		return nil
	case *lang.ReturnStmt:
		if s.X != nil {
			k, err := c.expr(s.X)
			if err != nil {
				return err
			}
			if k != KindScalar {
				return errf(s.Pos, "return value must be scalar (reduce thick values first)")
			}
			c.fn.Returns = true
		}
		return nil
	}
	return errf(s.GetPos(), "unhandled statement %T", s)
}

func (c *checker) scalarCond(e lang.Expr, what string) error {
	k, err := c.expr(e)
	if err != nil {
		return err
	}
	if k != KindScalar {
		return errf(e.GetPos(), "%s condition must be scalar: the whole flow selects one path (use thickness manipulation or parallel for thread-dependent choice)", what)
	}
	return nil
}

func (c *checker) localDecl(d *lang.VarDecl) error {
	if d.Space != lang.SpaceReg {
		return errf(d.Pos, "shared/local declarations must be top-level")
	}
	if d.ArrayLen >= 0 {
		return errf(d.Pos, "register variable %s cannot be an array (use a shared/local array)", d.Name)
	}
	if d.Addr >= 0 {
		return errf(d.Pos, "register variable %s cannot bind an address", d.Name)
	}
	if d.InitList != nil {
		return errf(d.Pos, "register variable %s cannot take an initializer list", d.Name)
	}
	scope := c.scopes[len(c.scopes)-1]
	if _, dup := scope[d.Name]; dup {
		return errf(d.Pos, "duplicate variable %s in this scope", d.Name)
	}
	if IsBuiltinIdent(d.Name) || IsIntrinsic(d.Name) {
		return errf(d.Pos, "%s shadows a builtin", d.Name)
	}
	sym := &Sym{Name: d.Name, Decl: d, Space: lang.SpaceReg, Thick: d.Thick,
		ArrayLen: -1, FuncName: c.fn.Decl.Name}
	if d.InitExpr != nil {
		k, err := c.expr(d.InitExpr)
		if err != nil {
			return err
		}
		if !d.Thick && k == KindThick {
			return errf(d.Pos, "cannot initialize scalar %s with a thick value", d.Name)
		}
	}
	scope[d.Name] = sym
	c.info.Syms[d] = sym
	return nil
}

func (c *checker) assign(s *lang.AssignStmt) error {
	rk, err := c.expr(s.RHS)
	if err != nil {
		return err
	}
	if rk == KindVoid {
		return errf(s.Pos, "cannot assign a void call result")
	}
	switch lhs := s.LHS.(type) {
	case *lang.Ident:
		if IsBuiltinIdent(lhs.Name) {
			return errf(lhs.Pos, "cannot assign to builtin %s", lhs.Name)
		}
		sym := c.lookup(lhs.Name)
		if sym == nil {
			return errf(lhs.Pos, "undeclared variable %s", lhs.Name)
		}
		if sym.ArrayLen >= 0 {
			return errf(lhs.Pos, "cannot assign whole array %s", lhs.Name)
		}
		c.info.Syms[lhs] = sym
		lk := sym.Kind()
		if sym.Space != lang.SpaceReg {
			lk = KindScalar // memory scalar word
		}
		if lk == KindScalar && rk == KindThick {
			return errf(s.Pos, "cannot assign thick value to scalar %s (use a reduction: radd/rmax/...)", lhs.Name)
		}
		return nil
	case *lang.Index:
		sym := c.lookup(lhs.Name)
		if sym == nil {
			return errf(lhs.Pos, "undeclared array %s", lhs.Name)
		}
		if sym.ArrayLen < 0 && sym.Space == lang.SpaceReg {
			return errf(lhs.Pos, "%s is not an array", lhs.Name)
		}
		c.info.Syms[lhs] = sym
		ik, err := c.expr(lhs.Idx)
		if err != nil {
			return err
		}
		if ik == KindVoid {
			return errf(lhs.Pos, "array index cannot be void")
		}
		if ik == KindScalar && rk == KindThick {
			return errf(s.Pos, "storing a thick value needs a thick index (each thread stores its own element)")
		}
		return nil
	}
	return errf(s.Pos, "invalid assignment target")
}

// expr computes and records the kind of e.
func (c *checker) expr(e lang.Expr) (Kind, error) {
	k, err := c.exprKind(e)
	if err != nil {
		return k, err
	}
	c.info.Kinds[e] = k
	return k, nil
}

func (c *checker) exprKind(e lang.Expr) (Kind, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return KindScalar, nil
	case *lang.StrLit:
		return KindVoid, errf(e.Pos, "string literal only valid as prints(...) argument")
	case *lang.Ident:
		if k, ok := builtins[e.Name]; ok {
			return k, nil
		}
		sym := c.lookup(e.Name)
		if sym == nil {
			return KindScalar, errf(e.Pos, "undeclared variable %s", e.Name)
		}
		if sym.ArrayLen >= 0 {
			return KindScalar, errf(e.Pos, "array %s used as a value (index it or take &%s)", e.Name, e.Name)
		}
		c.info.Syms[e] = sym
		if sym.Space != lang.SpaceReg {
			return KindScalar, nil
		}
		return sym.Kind(), nil
	case *lang.Unary:
		return c.expr(e.X)
	case *lang.Binary:
		xk, err := c.expr(e.X)
		if err != nil {
			return xk, err
		}
		yk, err := c.expr(e.Y)
		if err != nil {
			return yk, err
		}
		if xk == KindVoid || yk == KindVoid {
			return KindVoid, errf(e.Pos, "void value in expression")
		}
		if xk == KindThick || yk == KindThick {
			return KindThick, nil
		}
		return KindScalar, nil
	case *lang.Index:
		sym := c.lookup(e.Name)
		if sym == nil {
			return KindScalar, errf(e.Pos, "undeclared array %s", e.Name)
		}
		if sym.ArrayLen < 0 && sym.Space == lang.SpaceReg {
			return KindScalar, errf(e.Pos, "%s is not an array", e.Name)
		}
		c.info.Syms[e] = sym
		ik, err := c.expr(e.Idx)
		if err != nil {
			return ik, err
		}
		if ik == KindVoid {
			return KindVoid, errf(e.Pos, "array index cannot be void")
		}
		return ik, nil
	case *lang.AddrOf:
		sym := c.lookup(e.Name)
		if sym == nil {
			return KindScalar, errf(e.Pos, "undeclared variable %s", e.Name)
		}
		if sym.Space == lang.SpaceReg {
			return KindScalar, errf(e.Pos, "cannot take the address of register variable %s", e.Name)
		}
		c.info.Syms[e] = sym
		if e.Idx == nil {
			return KindScalar, nil
		}
		ik, err := c.expr(e.Idx)
		if err != nil {
			return ik, err
		}
		if ik == KindVoid {
			return KindVoid, errf(e.Pos, "address index cannot be void")
		}
		return ik, nil
	case *lang.Call:
		return c.call(e)
	}
	return KindScalar, errf(e.GetPos(), "unhandled expression %T", e)
}

func (c *checker) call(e *lang.Call) (Kind, error) {
	if sig, ok := intrinsics[e.Name]; ok {
		if len(e.Args) != sig.argc {
			return sig.result, errf(e.Pos, "%s expects %d argument(s), got %d", e.Name, sig.argc, len(e.Args))
		}
		if e.Name == "prints" {
			if _, ok := e.Args[0].(*lang.StrLit); !ok {
				return sig.result, errf(e.Pos, "prints expects a string literal")
			}
			c.info.Kinds[e.Args[0]] = KindVoid
			return sig.result, nil
		}
		for i, a := range e.Args {
			k, err := c.expr(a)
			if err != nil {
				return sig.result, err
			}
			if k == KindVoid {
				return sig.result, errf(e.Pos, "void argument to %s", e.Name)
			}
			// Reductions need a thick argument.
			if sig.argc == 1 && e.Name[0] == 'r' && e.Name != "assert" && k != KindThick {
				return sig.result, errf(e.Pos, "%s reduces a thick value; argument %d is scalar", e.Name, i+1)
			}
			if e.Name == "assert" && k != KindScalar {
				return sig.result, errf(e.Pos, "assert condition must be scalar (reduce thick conditions with rand/ror)")
			}
		}
		return sig.result, nil
	}
	fi, ok := c.info.Funcs[e.Name]
	if !ok {
		return KindScalar, errf(e.Pos, "undefined function %s", e.Name)
	}
	if len(e.Args) != len(fi.Params) {
		return KindScalar, errf(e.Pos, "%s expects %d argument(s), got %d", e.Name, len(fi.Params), len(e.Args))
	}
	for _, a := range e.Args {
		k, err := c.expr(a)
		if err != nil {
			return KindScalar, err
		}
		if k != KindScalar {
			return KindScalar, errf(a.GetPos(), "function arguments must be scalar (thick data passes through memory)")
		}
	}
	c.fn.Calls = append(c.fn.Calls, e.Name)
	if fi.Returns {
		return KindScalar, nil
	}
	return KindVoid, nil
}
