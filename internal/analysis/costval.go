package analysis

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/multiop"
)

// The cost executor's value domain. Scalars are either a known 64-bit word
// or unknown; vectors are compressed whole-register shapes so that
// register-level computation over huge thicknesses stays O(1) per
// instruction:
//
//   - cvUni:  every lane holds the same value (LDI, scalar broadcasts);
//   - cvAff:  lane i holds base + i*stride (TID, linear index arithmetic);
//   - cvConc: an explicit per-lane image, used below the materialization
//     cap (corpus-scale programs run fully concrete and therefore exact);
//   - cvUnk:  value lost to a budget (cost accounting can stay exact —
//     operation counts never depend on the values — but anything
//     control- or address-relevant computed from it stops the analysis).
//
// Affine forms are exact under two's-complement wraparound: ADD/SUB/MUL-
// by-uniform/SHL-by-uniform are ring operations mod 2^64, so the closed
// forms match the engine's isa.Eval lane for lane.
//
// Vectors are values, not heap objects. A cvConc image either belongs to a
// flow register (absFlow.setVec copies into the register's own buffer) or
// is a temporary from the executor's vecArena, valid until the next
// instruction; operand views alias one or the other read-only.

// aval is a scalar abstract value.
type aval struct {
	ok bool
	v  int64
}

func known(v int64) aval { return aval{ok: true, v: v} }

var unknown = aval{}

type vkind uint8

const (
	cvUni vkind = iota
	cvAff
	cvConc
	cvUnk
)

// avec is a vector abstract value covering exactly n lanes. The flow
// register file stores the full backing image (the engine's Flow.Vector
// backing); views of other lengths are derived with the engine's
// zero-extension semantics. The zero avec is an empty all-zero vector, a
// register nothing has written.
type avec struct {
	kind vkind
	n    int
	// base/stride describe cvUni (stride always 0) and cvAff lanes.
	base, stride int64
	// vals is the cvConc per-lane image. In a flow register it is the
	// register's own buffer, kept across kinds for reuse.
	vals []int64
}

func uniVec(n int, v int64) avec { return avec{kind: cvUni, n: n, base: v} }
func unkVec(n int) avec          { return avec{kind: cvUnk, n: n} }
func concVec(vals []int64) avec  { return avec{kind: cvConc, n: len(vals), vals: vals} }
func affVec(n int, b, s int64) avec {
	if s == 0 {
		return uniVec(n, b)
	}
	return avec{kind: cvAff, n: n, base: b, stride: s}
}

// lane reads lane i with the engine's semantics: indices beyond the
// representation read as zero (laneVal on a shorter backing).
func (v *avec) lane(i int) aval {
	if i >= v.n {
		return known(0)
	}
	if v.kind == cvUnk {
		return unknown
	}
	return known(v.at(i))
}

// at is lane i < n of a vector of known kind.
func (v *avec) at(i int) int64 {
	if v.kind == cvConc {
		return v.vals[i]
	}
	return v.base + int64(i)*v.stride
}

// concrete reports whether the vector's lanes can be enumerated: its kind
// is known and it is within the materialization cap.
func (v *avec) concrete(cap int) bool { return v.kind != cvUnk && v.n <= cap }

// vecArena hands out the temporary lane images of one instruction. reset
// recycles them all, so it runs only between instructions, when no
// temporary is live: results that survive are copied into flow registers.
// Growing starts a fresh, larger chunk; slices already handed out stay
// valid until the next reset.
type vecArena struct {
	cap  int // MaxConcreteLanes
	buf  []int64
	used int
}

func (ar *vecArena) reset() { ar.used = 0 }

// alloc returns n lanes of uninitialized scratch.
func (ar *vecArena) alloc(n int) []int64 {
	if ar.used+n > len(ar.buf) {
		size := max(2*len(ar.buf), n, 64)
		ar.buf = make([]int64, size)
		ar.used = 0
	}
	out := ar.buf[ar.used : ar.used+n : ar.used+n]
	ar.used += n
	return out
}

// view derives an n-lane view of backing b: truncation keeps the low lanes,
// extension appends zeros (exactly Flow.Vector's lazy grow).
func (ar *vecArena) view(b avec, n int) avec {
	if n < 0 {
		n = 0
	}
	if b.n == n {
		return b
	}
	if b.n > n {
		switch b.kind {
		case cvUni:
			return uniVec(n, b.base)
		case cvAff:
			return affVec(n, b.base, b.stride)
		case cvConc:
			return concVec(b.vals[:n])
		}
		return unkVec(n)
	}
	// Extension with zeros.
	if b.kind == cvUni && b.base == 0 {
		return uniVec(n, 0)
	}
	if b.kind == cvUnk || n > ar.cap {
		return unkVec(n)
	}
	out := ar.alloc(n)
	for i := 0; i < b.n; i++ {
		out[i] = b.at(i)
	}
	clear(out[b.n:])
	return concVec(out)
}

// alu applies a binary ALU op lane-wise over two equal-length views.
// Affine closed forms are used where they are exact under wraparound;
// everything else is computed lane by lane below the cap and degrades to
// unknown above.
func (ar *vecArena) alu(op isa.Op, a, b avec) avec {
	n := a.n
	if a.kind == cvUni && b.kind == cvUni {
		return uniVec(n, isa.Eval(op, a.base, b.base))
	}
	if a.kind <= cvAff && b.kind <= cvAff {
		// Both uni/aff: uni has stride 0.
		ab, as := a.base, a.stride
		bb, bs := b.base, b.stride
		switch op {
		case isa.ADD:
			return affVec(n, ab+bb, as+bs)
		case isa.SUB:
			return affVec(n, ab-bb, as-bs)
		case isa.MUL:
			if bs == 0 {
				return affVec(n, ab*bb, as*bb)
			}
			if as == 0 {
				return affVec(n, ab*bb, ab*bs)
			}
		case isa.SHL:
			if bs == 0 {
				s := isa.ClampShift(bb)
				return affVec(n, ab<<s, as<<s)
			}
		}
	}
	if !a.concrete(ar.cap) || !b.concrete(ar.cap) {
		return unkVec(n)
	}
	out := ar.alloc(n)
	switch {
	case a.kind == cvConc && b.kind == cvConc:
		for i, x := range a.vals {
			out[i] = isa.Eval(op, x, b.vals[i])
		}
	case a.kind == cvConc && b.kind == cvUni:
		for i, x := range a.vals {
			out[i] = isa.Eval(op, x, b.base)
		}
	default:
		for i := range out {
			out[i] = isa.Eval(op, a.at(i), b.at(i))
		}
	}
	return concVec(out)
}

// unary applies MOV/NEG/NOT lane-wise.
func (ar *vecArena) unary(op isa.Op, a avec) avec {
	switch a.kind {
	case cvUni:
		switch op {
		case isa.MOV:
			return a
		case isa.NEG:
			return uniVec(a.n, -a.base)
		case isa.NOT:
			return uniVec(a.n, ^a.base)
		}
	case cvAff:
		switch op {
		case isa.MOV:
			return a
		case isa.NEG:
			return affVec(a.n, -a.base, -a.stride)
		case isa.NOT:
			return affVec(a.n, ^a.base, -a.stride)
		}
	case cvConc:
		if op == isa.MOV {
			return a
		}
		out := ar.alloc(a.n)
		for i, v := range a.vals {
			if op == isa.NEG {
				out[i] = -v
			} else {
				out[i] = ^v
			}
		}
		return concVec(out)
	}
	return unkVec(a.n)
}

// sel is the lane-wise SEL (cond ? then : else).
func (ar *vecArena) sel(cond, then, els avec) avec {
	n := cond.n
	if cond.kind == cvUni {
		if cond.base != 0 {
			return then
		}
		return els
	}
	if !cond.concrete(ar.cap) || !then.concrete(ar.cap) || !els.concrete(ar.cap) {
		return unkVec(n)
	}
	out := ar.alloc(n)
	for i := range out {
		if cond.at(i) != 0 {
			out[i] = then.at(i)
		} else {
			out[i] = els.at(i)
		}
	}
	return concVec(out)
}

// triangular returns 0+1+...+(m-1) mod 2^64, computed with a parity split
// so the division by two happens before any wraparound.
func triangular(m int64) int64 {
	um := uint64(m)
	if um == 0 {
		return 0
	}
	if um%2 == 0 {
		return int64((um / 2) * (um - 1))
	}
	return int64(um * ((um - 1) / 2))
}

// addNoWrap reports a+b with an overflow flag.
func addNoWrap(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// mulNoWrap reports a*b with an overflow flag.
func mulNoWrap(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// reduceVec folds a view under one of the combining operators exactly as
// execAtomic does (identity-seeded left fold with multiop.Apply).
func reduceVec(kind isa.Op, v avec, cap int) aval {
	n := v.n
	if n == 0 {
		return known(multiop.Identity(kind))
	}
	switch v.kind {
	case cvUni:
		switch kind {
		case isa.ADD:
			return known(int64(uint64(v.base) * uint64(n)))
		case isa.AND, isa.OR, isa.MAX, isa.MIN:
			return known(v.base)
		}
	case cvAff:
		switch kind {
		case isa.ADD:
			// Sum of base + i*stride over i in [0, n): exact mod 2^64.
			s := int64(uint64(v.base)*uint64(n)) + int64(uint64(v.stride)*uint64(triangular(int64(n))))
			return known(s)
		case isa.MAX, isa.MIN:
			// Endpoints are only the extrema when the sequence does not
			// wrap; verify before using the closed form.
			if span, ok := mulNoWrap(v.stride, int64(n-1)); ok {
				if last, ok := addNoWrap(v.base, span); ok {
					if (kind == isa.MAX) == (v.stride > 0) {
						return known(last)
					}
					return known(v.base)
				}
			}
		}
	}
	if !v.concrete(cap) {
		return unknown
	}
	acc := multiop.Identity(kind)
	for i := 0; i < n; i++ {
		acc = multiop.Apply(kind, acc, v.at(i))
	}
	return known(acc)
}
