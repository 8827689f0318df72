package isa

import (
	"math"
	"testing"
)

// TestEvalTrapFree pins the ALU's edge cases, which the interpreter, the
// constant folder and the cost analyzer all inherit from Eval.
func TestEvalTrapFree(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{ADD, math.MaxInt64, 1, math.MinInt64},
		{SUB, 3, 5, -2},
		{MUL, -4, 5, -20},
		{DIV, 7, 0, 0},
		{DIV, -7, 2, -3},
		{DIV, math.MinInt64, -1, math.MinInt64},
		{MOD, 7, 0, 0},
		{MOD, -7, 2, -1},
		{AND, 12, 10, 8},
		{OR, 12, 10, 14},
		{XOR, 12, 10, 6},
		{SHL, 1, 70, math.MinInt64},
		{SHL, 1, -3, 1},
		{SHR, -8, 1, -4},
		{SHR, -8, 99, -1},
		{MIN, -1, 2, -1},
		{MAX, -1, 2, 2},
		{SEQ, 3, 3, 1},
		{SNE, 3, 3, 0},
		{SLT, -1, 0, 1},
		{SLE, 0, 0, 1},
		{SGT, 0, 0, 0},
		{SGE, 1, 0, 1},
		{MOV, 9, 9, 0}, // not a binary ALU op
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b); got != c.want {
			t.Errorf("Eval(%s, %d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
	if ClampShift(-1) != 0 || ClampShift(64) != 63 || ClampShift(5) != 5 {
		t.Error("ClampShift does not clamp to [0, 63]")
	}
	if B2I(true) != 1 || B2I(false) != 0 {
		t.Error("B2I is not 1/0")
	}
}
