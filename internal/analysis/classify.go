package analysis

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

// foldOp evaluates one binary operator on constants with the machine's ALU
// semantics: trap-free division/modulo (0 on zero divisor), shifts clamped
// to [0,63], non-short-circuit boolean operators.
func foldOp(op lang.TokKind, a, b int64) (int64, bool) {
	switch op {
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
	case lang.TokAmp:
		return a & b, true
	case lang.TokPipe:
		return a | b, true
	case lang.TokCaret:
		return a ^ b, true
	case lang.TokShl:
		return a << isa.ClampShift(b), true
	case lang.TokShr:
		return a >> isa.ClampShift(b), true
	case lang.TokLt:
		return isa.B2I(a < b), true
	case lang.TokLe:
		return isa.B2I(a <= b), true
	case lang.TokGt:
		return isa.B2I(a > b), true
	case lang.TokGe:
		return isa.B2I(a >= b), true
	case lang.TokEq:
		return isa.B2I(a == b), true
	case lang.TokNe:
		return isa.B2I(a != b), true
	case lang.TokAndAnd:
		return isa.B2I(a != 0 && b != 0), true
	case lang.TokOrOr:
		return isa.B2I(a != 0 || b != 0), true
	}
	return 0, false
}

// foldPlain evaluates e when it is built from literals only (no symbol
// environment). The CFG builder uses it to prune constant branches.
func foldPlain(e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Val, true
	case *lang.Unary:
		v, ok := foldPlain(e.X)
		if !ok {
			return 0, false
		}
		return foldUnary(e.Op, v)
	case *lang.Binary:
		a, ok1 := foldPlain(e.X)
		b, ok2 := foldPlain(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		return foldOp(e.Op, a, b)
	}
	return 0, false
}

func foldUnary(op lang.TokKind, v int64) (int64, bool) {
	switch op {
	case lang.TokMinus:
		return -v, true
	case lang.TokTilde:
		return ^v, true
	case lang.TokBang:
		return isa.B2I(v == 0), true
	}
	return 0, false
}

// fold evaluates e using the function's constant environment: literals,
// known-constant scalar variables, and operators with ALU semantics.
func (fa *funcAnalysis) fold(e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Val, true
	case *lang.Ident:
		if sym := fa.a.info.Syms[e]; sym != nil {
			if v, ok := fa.constEnv[sym]; ok {
				return v, true
			}
		}
		return 0, false
	case *lang.Unary:
		v, ok := fa.fold(e.X)
		if !ok {
			return 0, false
		}
		return foldUnary(e.Op, v)
	case *lang.Binary:
		a, ok1 := fa.fold(e.X)
		b, ok2 := fa.fold(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		return foldOp(e.Op, a, b)
	}
	return 0, false
}

// idxKind classifies how an index expression maps the implicit threads of a
// thick access onto addresses.
type idxKind int

const (
	// idxUnknown: nothing provable.
	idxUnknown idxKind = iota
	// idxCommon: lane-invariant — every thread computes the same value, so
	// a thick access through it collides whenever thickness >= 2.
	idxCommon
	// idxAffine: coef*tid + off with coef != 0 — injective over threads.
	idxAffine
	// idxMod: at most `mod` distinct values across threads — collides by
	// pigeonhole whenever thickness > mod.
	idxMod
	// idxDup: two distinct threads provably compute the same value whenever
	// thickness >= 2 (e.g. tid/k with k > 1).
	idxDup
)

// idxInfo is the result of classifying an index expression.
type idxInfo struct {
	kind     idxKind
	val      int64 // idxCommon: the value, when valKnown
	valKnown bool
	coef     int64 // idxAffine: tid coefficient (never 0)
	off      int64 // idxAffine: constant offset, when offKnown
	offKnown bool
	mod      int64 // idxMod: distinct-value bound (>= 2)
}

func commonVal(v int64) idxInfo { return idxInfo{kind: idxCommon, val: v, valKnown: true} }
func commonAny() idxInfo        { return idxInfo{kind: idxCommon} }
func unknownIdx() idxInfo       { return idxInfo{kind: idxUnknown} }
func colliding(i idxInfo) bool  { return i.kind == idxCommon || i.kind == idxMod || i.kind == idxDup }

// collides reports whether the classified index provably maps two distinct
// threads to the same address under the given thickness.
func (i idxInfo) collides(t thick) bool {
	if !t.known {
		return false
	}
	switch i.kind {
	case idxCommon, idxDup:
		return t.n >= 2
	case idxMod:
		return t.n > i.mod
	}
	return false
}

const maxClassifyDepth = 24

// classify determines the thread→value shape of an index expression. It is
// deliberately conservative: anything it cannot prove is idxUnknown, and
// only provable collisions are ever reported.
func (fa *funcAnalysis) classify(e lang.Expr, depth int) idxInfo {
	if depth > maxClassifyDepth || e == nil {
		return unknownIdx()
	}
	// Scalar-kinded expressions are flow-common by the type system: every
	// thread sees the same value regardless of the expression's shape.
	if k, ok := fa.a.info.Kinds[e]; ok && k == sema.KindScalar {
		if v, folded := fa.fold(e); folded {
			return commonVal(v)
		}
		return commonAny()
	}
	switch e := e.(type) {
	case *lang.IntLit:
		return commonVal(e.Val)
	case *lang.Ident:
		if e.Name == "tid" {
			return idxInfo{kind: idxAffine, coef: 1, off: 0, offKnown: true}
		}
		sym := fa.a.info.Syms[e]
		if sym == nil {
			return unknownIdx()
		}
		if sym.Space != lang.SpaceReg || !sym.Thick {
			return commonAny()
		}
		// Thick register with a single defining expression: propagate.
		if def, ok := fa.singleDef[sym]; ok {
			return fa.classify(def, depth+1)
		}
		return unknownIdx()
	case *lang.Unary:
		x := fa.classify(e.X, depth+1)
		switch e.Op {
		case lang.TokMinus:
			switch x.kind {
			case idxCommon:
				if x.valKnown {
					return commonVal(-x.val)
				}
				return commonAny()
			case idxAffine:
				return idxInfo{kind: idxAffine, coef: -x.coef, off: -x.off, offKnown: x.offKnown}
			case idxMod, idxDup:
				return x // bijective: duplicates and bound preserved
			}
		case lang.TokTilde:
			// ^x = -x-1: bijective, same shape as minus.
			switch x.kind {
			case idxCommon:
				if x.valKnown {
					return commonVal(^x.val)
				}
				return commonAny()
			case idxAffine:
				return idxInfo{kind: idxAffine, coef: -x.coef}
			case idxMod, idxDup:
				return x
			}
		case lang.TokBang:
			// Boolean-valued: at most two distinct values across threads.
			if x.kind == idxCommon {
				if x.valKnown {
					return commonVal(isa.B2I(x.val == 0))
				}
				return commonAny()
			}
			if x.kind != idxUnknown {
				return idxInfo{kind: idxMod, mod: 2}
			}
		}
		return unknownIdx()
	case *lang.Binary:
		return fa.combine(e.Op, fa.classify(e.X, depth+1), fa.classify(e.Y, depth+1))
	}
	return unknownIdx()
}

// combine merges two classified operands under a binary operator.
func (fa *funcAnalysis) combine(op lang.TokKind, x, y idxInfo) idxInfo {
	// Comparisons and boolean connectives produce at most two distinct
	// values whenever either side is classifiable at all.
	switch op {
	case lang.TokLt, lang.TokLe, lang.TokGt, lang.TokGe, lang.TokEq, lang.TokNe,
		lang.TokAndAnd, lang.TokOrOr:
		if x.kind == idxCommon && y.kind == idxCommon {
			if x.valKnown && y.valKnown {
				if v, ok := foldOp(op, x.val, y.val); ok {
					return commonVal(v)
				}
			}
			return commonAny()
		}
		if x.kind != idxUnknown && y.kind != idxUnknown {
			return idxInfo{kind: idxMod, mod: 2}
		}
		return unknownIdx()
	}

	// Lane-invariant on both sides: lane-invariant result.
	if x.kind == idxCommon && y.kind == idxCommon {
		if x.valKnown && y.valKnown {
			if v, ok := foldOp(op, x.val, y.val); ok {
				return commonVal(v)
			}
		}
		return commonAny()
	}

	// A provably-colliding operand combined with a lane-invariant one stays
	// colliding under ANY operator: if threads s and t agree on the value,
	// they agree on any function of it and a flow-common operand. The
	// distinct-value bound can only shrink.
	if colliding(x) && x.kind != idxCommon && y.kind == idxCommon {
		return x
	}
	if colliding(y) && y.kind != idxCommon && x.kind == idxCommon {
		return y
	}

	// common ⊕ colliding where the colliding side is idxCommon was handled
	// above; the remaining interesting cases involve an affine operand.
	switch op {
	case lang.TokPlus:
		if x.kind == idxAffine && y.kind == idxCommon {
			return affineShift(x, y, false)
		}
		if x.kind == idxCommon && y.kind == idxAffine {
			return affineShift(y, x, false)
		}
		if x.kind == idxAffine && y.kind == idxAffine {
			return affineSum(x, y, 1)
		}
		if x.kind == idxCommon && colliding(y) {
			return y
		}
	case lang.TokMinus:
		if x.kind == idxAffine && y.kind == idxCommon {
			return affineShift(x, y, true)
		}
		if x.kind == idxCommon && y.kind == idxAffine {
			n := idxInfo{kind: idxAffine, coef: -y.coef, off: -y.off, offKnown: y.offKnown}
			return affineShift(n, x, false)
		}
		if x.kind == idxAffine && y.kind == idxAffine {
			return affineSum(x, y, -1)
		}
		if x.kind == idxCommon && colliding(y) {
			return y
		}
	case lang.TokStar:
		if x.kind == idxAffine && y.kind == idxCommon {
			return affineScale(x, y)
		}
		if x.kind == idxCommon && y.kind == idxAffine {
			return affineScale(y, x)
		}
	case lang.TokSlash:
		if x.kind == idxAffine && y.kind == idxCommon && y.valKnown {
			k := y.val
			switch {
			case k == 0:
				return commonVal(0) // trap-free ALU: x/0 == 0
			case k == 1:
				return x
			case k == -1:
				return idxInfo{kind: idxAffine, coef: -x.coef, off: -x.off, offKnown: x.offKnown}
			case abs64(x.coef) < abs64(k):
				// Consecutive threads land in the same quotient bucket.
				return idxInfo{kind: idxDup}
			}
		}
	case lang.TokPercent:
		if x.kind == idxAffine && y.kind == idxCommon && y.valKnown {
			k := abs64(y.val)
			switch {
			case k == 0:
				return commonVal(0) // trap-free ALU: x%0 == 0
			case k == 1:
				return commonVal(0)
			default:
				return idxInfo{kind: idxMod, mod: k}
			}
		}
	case lang.TokShl:
		if x.kind == idxAffine && y.kind == idxCommon && y.valKnown {
			c := y.val
			if c == 0 {
				return x
			}
			if c > 0 && c < 63 {
				coef := x.coef << uint(c)
				if coef>>uint(c) == x.coef && coef != 0 {
					return idxInfo{kind: idxAffine, coef: coef,
						off: x.off << uint(c), offKnown: x.offKnown}
				}
			}
		}
	case lang.TokShr:
		if x.kind == idxAffine && y.kind == idxCommon && y.valKnown {
			c := y.val
			if c == 0 {
				return x
			}
			if c > 0 && c < 63 && abs64(x.coef) < int64(1)<<uint(c) {
				return idxInfo{kind: idxDup}
			}
		}
	}
	return unknownIdx()
}

func affineShift(a idxInfo, c idxInfo, sub bool) idxInfo {
	out := idxInfo{kind: idxAffine, coef: a.coef}
	if a.offKnown && c.valKnown {
		if sub {
			out.off, out.offKnown = a.off-c.val, true
		} else {
			out.off, out.offKnown = a.off+c.val, true
		}
	}
	return out
}

func affineSum(a, b idxInfo, sign int64) idxInfo {
	coef := a.coef + sign*b.coef
	if coef == 0 {
		// e.g. tid - tid: lane-invariant.
		if a.offKnown && b.offKnown {
			return commonVal(a.off + sign*b.off)
		}
		return commonAny()
	}
	out := idxInfo{kind: idxAffine, coef: coef}
	if a.offKnown && b.offKnown {
		out.off, out.offKnown = a.off+sign*b.off, true
	}
	return out
}

func affineScale(a idxInfo, c idxInfo) idxInfo {
	if !c.valKnown {
		// Unknown scalar factor could be zero: not provably injective, not
		// provably colliding.
		return unknownIdx()
	}
	if c.val == 0 {
		return commonVal(0)
	}
	coef := a.coef * c.val
	if coef/c.val != a.coef || coef == 0 {
		return unknownIdx() // overflow
	}
	out := idxInfo{kind: idxAffine, coef: coef}
	if a.offKnown {
		out.off, out.offKnown = a.off*c.val, true
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
