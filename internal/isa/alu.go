package isa

// Eval computes the binary ALU operation op (IsBinaryALU) on a and b. The
// simulated ALU is trap-free: division and modulo by zero yield zero, and
// shift amounts clamp to [0, 63]. Any other opcode evaluates to zero. This
// is the one definition of the machine's arithmetic: the interpreter, the
// compiler's constant folder and the static cost analyzer call it, and the
// fused kernels build their per-opcode closures from the same helpers.
func Eval(op Op, a, b int64) int64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case MUL:
		return a * b
	case DIV:
		if b == 0 {
			return 0
		}
		return a / b
	case MOD:
		if b == 0 {
			return 0
		}
		return a % b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << ClampShift(b)
	case SHR:
		return a >> ClampShift(b)
	case MIN:
		if a < b {
			return a
		}
		return b
	case MAX:
		if a > b {
			return a
		}
		return b
	case SEQ:
		return B2I(a == b)
	case SNE:
		return B2I(a != b)
	case SLT:
		return B2I(a < b)
	case SLE:
		return B2I(a <= b)
	case SGT:
		return B2I(a > b)
	case SGE:
		return B2I(a >= b)
	}
	return 0
}

// ClampShift is the ALU's shift amount for operand b: negative amounts
// shift by 0 and amounts past the word width shift by 63.
func ClampShift(b int64) uint {
	if b < 0 {
		return 0
	}
	if b > 63 {
		return 63
	}
	return uint(b)
}

// B2I is the ALU's truth value: 1 for true, 0 for false.
func B2I(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
