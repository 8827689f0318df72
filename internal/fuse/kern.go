package fuse

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// laneVal mirrors the engine's operand read: scalar registers broadcast to
// every lane; vector reads beyond the allocated lane count (possible only
// for flow-level forms on thin flows) yield zero.
func laneVal(f *tcf.Flow, r isa.Reg, i int) int64 {
	if r.IsScalar() {
		return f.Scalar(r)
	}
	v := f.Vector(r)
	if i >= len(v) {
		return 0
	}
	return v[i]
}

// aluFn returns the scalar evaluator of a binary ALU opcode, identical to
// the interpreter's trap-free ALU: division/modulo by zero yield zero,
// shifts clamp to [0, 63].
func aluFn(op isa.Op) func(a, b int64) int64 {
	switch op {
	case isa.ADD:
		return func(a, b int64) int64 { return a + b }
	case isa.SUB:
		return func(a, b int64) int64 { return a - b }
	case isa.MUL:
		return func(a, b int64) int64 { return a * b }
	case isa.DIV:
		return func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
	case isa.MOD:
		return func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a % b
		}
	case isa.AND:
		return func(a, b int64) int64 { return a & b }
	case isa.OR:
		return func(a, b int64) int64 { return a | b }
	case isa.XOR:
		return func(a, b int64) int64 { return a ^ b }
	case isa.SHL:
		return func(a, b int64) int64 { return a << isa.ClampShift(b) }
	case isa.SHR:
		return func(a, b int64) int64 { return a >> isa.ClampShift(b) }
	case isa.MIN:
		return func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		}
	case isa.MAX:
		return func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		}
	case isa.SEQ:
		return func(a, b int64) int64 { return isa.B2I(a == b) }
	case isa.SNE:
		return func(a, b int64) int64 { return isa.B2I(a != b) }
	case isa.SLT:
		return func(a, b int64) int64 { return isa.B2I(a < b) }
	case isa.SLE:
		return func(a, b int64) int64 { return isa.B2I(a <= b) }
	case isa.SGT:
		return func(a, b int64) int64 { return isa.B2I(a > b) }
	case isa.SGE:
		return func(a, b int64) int64 { return isa.B2I(a >= b) }
	}
	return nil
}

// compileKern builds the lane kernel for a register-class instruction,
// resolving operand shapes (vector/scalar/immediate) once. Returns nil for
// opcodes without lane semantics.
func compileKern(in isa.Instr) Kern {
	rd, ra, rb, rc := in.Rd, in.Ra, in.Rb, in.Rc
	imm := in.Imm
	switch {
	case in.Op == isa.LDI:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				for i := first; i < end; i++ {
					dst[i] = imm
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, imm) }

	case in.Op == isa.MOV:
		switch {
		case rd.IsVector() && ra.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) {
				copy(f.Vector(rd)[first:end], f.Vector(ra)[first:end])
			}
		case rd.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, v := f.Vector(rd), f.Scalar(ra)
				for i := first; i < end; i++ {
					dst[i] = v
				}
			}
		default:
			return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, laneVal(f, ra, 0)) }
		}

	case in.Op == isa.NEG, in.Op == isa.NOT:
		neg := in.Op == isa.NEG
		un := func(v int64) int64 { return ^v }
		if neg {
			un = func(v int64) int64 { return -v }
		}
		if rd.IsVector() && ra.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, src := f.Vector(rd), f.Vector(ra)
				for i := first; i < end; i++ {
					dst[i] = un(src[i])
				}
			}
		}
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, v := f.Vector(rd), un(f.Scalar(ra))
				for i := first; i < end; i++ {
					dst[i] = v
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, un(laneVal(f, ra, 0))) }

	case in.Op.IsBinaryALU():
		return binKern(in)

	case in.Op == isa.SEL:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				for i := first; i < end; i++ {
					v := laneVal(f, rc, i)
					if laneVal(f, ra, i) != 0 {
						v = laneVal(f, rb, i)
					}
					dst[i] = v
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			v := laneVal(f, rc, 0)
			if laneVal(f, ra, 0) != 0 {
				v = laneVal(f, rb, 0)
			}
			f.SetScalar(rd, v)
		}

	case in.Op == isa.TID:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				if f.Mode == tcf.NUMA {
					for i := first; i < end; i++ {
						dst[i] = 0
					}
					return
				}
				off := f.TidOffset
				for i := first; i < end; i++ {
					dst[i] = int64(off + i)
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			if f.Mode == tcf.NUMA {
				f.SetScalar(rd, 0)
				return
			}
			f.SetScalar(rd, int64(f.TidOffset))
		}

	case in.Op == isa.FID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.ID) })
	case in.Op == isa.THICK:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.TotalThickness) })
	case in.Op == isa.GID:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Group) })
	case in.Op == isa.PID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.Home) })
	case in.Op == isa.NPROC:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Procs) })
	case in.Op == isa.NGRP:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Groups) })
	}
	return nil
}

// fillKern broadcasts a flow/environment-derived value into the destination.
func fillKern(rd isa.Reg, val func(Env, *tcf.Flow) int64) Kern {
	if rd.IsVector() {
		return func(env Env, f *tcf.Flow, first, end int) {
			dst, v := f.Vector(rd), val(env, f)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	}
	return func(env Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, val(env, f)) }
}

// binKern compiles a binary ALU instruction. The vector×vector ADD — the
// inner loop of data-parallel arithmetic — gets a dedicated closure; every
// other shape captures the opcode's scalar evaluator.
func binKern(in isa.Instr) Kern {
	rd, ra, rb := in.Rd, in.Ra, in.Rb
	imm, hasImm := in.Imm, in.HasImm
	fn := aluFn(in.Op)
	if fn == nil {
		return nil
	}
	if !rd.IsVector() {
		// Scalar destination: one flow-level operation (lane 0 semantics).
		if hasImm {
			return func(_ Env, f *tcf.Flow, first, end int) {
				f.SetScalar(rd, fn(laneVal(f, ra, 0), imm))
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			f.SetScalar(rd, fn(laneVal(f, ra, 0), laneVal(f, rb, 0)))
		}
	}
	aVec := ra.IsVector()
	bVec := !hasImm && rb.IsVector()
	switch {
	case aVec && bVec:
		if in.Op == isa.ADD {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, av, bv := f.Vector(rd), f.Vector(ra), f.Vector(rb)
				for i := first; i < end; i++ {
					dst[i] = av[i] + bv[i]
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, av, bv := f.Vector(rd), f.Vector(ra), f.Vector(rb)
			for i := first; i < end; i++ {
				dst[i] = fn(av[i], bv[i])
			}
		}
	case aVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, av := f.Vector(rd), f.Vector(ra)
			bs := imm
			if !hasImm {
				bs = f.Scalar(rb)
			}
			for i := first; i < end; i++ {
				dst[i] = fn(av[i], bs)
			}
		}
	case bVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, bv := f.Vector(rd), f.Vector(rb)
			as := f.Scalar(ra)
			for i := first; i < end; i++ {
				dst[i] = fn(as, bv[i])
			}
		}
	default:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst := f.Vector(rd)
			bs := imm
			if !hasImm {
				bs = f.Scalar(rb)
			}
			v := fn(f.Scalar(ra), bs)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	}
}
