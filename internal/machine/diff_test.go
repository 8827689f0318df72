package machine

// Differential testing: random race-free thick programs are executed on the
// lockstep variants (single-instruction, balanced with several bounds, the
// multi-instruction engine, and the parallel step engine) and compared
// against a direct Go reference evaluation. Any divergence is a machine bug.

import (
	"math/rand"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

const (
	diffThickness = 11
	diffInputBase = 1000
	diffOutBase   = 2000
	diffAuxBase   = 900
)

// diffProgram is a randomly generated straight-line thick program plus its
// reference semantics.
type diffProgram struct {
	prog *isa.Program
	// want is the expected content of the output region (one word per
	// lane per store instruction).
	want []int64
	// wantAux is the expected combining word contents.
	wantAux []int64
	// hasReduction marks programs that are not fragment-safe (auto-split
	// rejects flow-level reductions inside fragments).
	hasReduction bool
}

// genDiffProgram builds a race-free random program: a single flow of fixed
// thickness computing on vector registers V1..V5 and scalars S1..S2, with
// loads from a random input array, occasional reductions and multiprefixes,
// and stores to disjoint per-lane addresses.
func genDiffProgram(rng *rand.Rand) diffProgram {
	b := isa.NewBuilder("diff")
	b.Label("main")
	b.SetThickImm(diffThickness)
	b.Id(isa.TID, isa.V(0))

	input := make([]int64, diffThickness)
	for i := range input {
		input[i] = int64(rng.Intn(41) - 20)
	}
	b.Data(diffInputBase, input...)

	// Reference state.
	lanes := diffThickness
	vregs := [6][]int64{} // V0..V5
	for r := range vregs {
		vregs[r] = make([]int64, lanes)
	}
	for i := 0; i < lanes; i++ {
		vregs[0][i] = int64(i)
	}
	sregs := [3]int64{} // S0..S2 (S0 unused)
	var want, wantAux []int64
	hasReduction := false
	auxUsed := 0
	stores := 0

	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.MIN, isa.MAX, isa.SLT, isa.SGT, isa.SEQ}
	steps := 5 + rng.Intn(25)
	for k := 0; k < steps; k++ {
		switch rng.Intn(10) {
		case 0: // load from input, indexed by V0 (race-free)
			d := 1 + rng.Intn(5)
			b.Ld(isa.V(d), isa.V(0), diffInputBase)
			for i := 0; i < lanes; i++ {
				vregs[d][i] = input[i]
			}
		case 1: // LDI broadcast
			d := 1 + rng.Intn(5)
			imm := int64(rng.Intn(21) - 10)
			b.Ldi(isa.V(d), imm)
			for i := 0; i < lanes; i++ {
				vregs[d][i] = imm
			}
		case 2: // reduction into a scalar
			hasReduction = true
			sd := 1 + rng.Intn(2)
			sr := 1 + rng.Intn(5)
			b.Reduce(isa.RADD, isa.S(sd), isa.V(sr))
			sum := int64(0)
			for i := 0; i < lanes; i++ {
				sum += vregs[sr][i]
			}
			sregs[sd] = sum
		case 3: // ALU with scalar operand (broadcast)
			op := aluOps[rng.Intn(len(aluOps))]
			d, a := 1+rng.Intn(5), rng.Intn(6)
			sr := 1 + rng.Intn(2)
			b.ALU(op, isa.V(d), isa.V(a), isa.S(sr))
			for i := 0; i < lanes; i++ {
				vregs[d][i] = isa.Eval(op, vregs[a][i], sregs[sr])
			}
		case 4: // SEL
			d, c, xx, y := 1+rng.Intn(5), rng.Intn(6), rng.Intn(6), rng.Intn(6)
			b.Sel(isa.V(d), isa.V(c), isa.V(xx), isa.V(y))
			for i := 0; i < lanes; i++ {
				if vregs[c][i] != 0 {
					vregs[d][i] = vregs[xx][i]
				} else {
					vregs[d][i] = vregs[y][i]
				}
			}
		case 5: // multiprefix over a fresh aux word
			d, v := 1+rng.Intn(5), rng.Intn(6)
			addr := int64(diffAuxBase + auxUsed)
			auxUsed++
			b.Prefix(isa.MPADD, isa.V(d), isa.RegNone, addr, isa.V(v))
			acc := int64(0)
			for i := 0; i < lanes; i++ {
				pre := acc
				acc += vregs[v][i]
				vregs[d][i] = pre
			}
			wantAux = append(wantAux, acc)
		case 6: // store to a disjoint per-lane region
			v := rng.Intn(6)
			base := int64(diffOutBase + stores*diffThickness)
			stores++
			b.St(isa.V(0), base, isa.V(v))
			want = append(want, vregs[v]...)
		default: // plain vector ALU with immediate
			op := aluOps[rng.Intn(len(aluOps))]
			d, a := 1+rng.Intn(5), rng.Intn(6)
			imm := int64(rng.Intn(11) - 5)
			b.ALUI(op, isa.V(d), isa.V(a), imm)
			for i := 0; i < lanes; i++ {
				vregs[d][i] = isa.Eval(op, vregs[a][i], imm)
			}
		}
	}
	// Final store so every program observes something.
	v := rng.Intn(6)
	base := int64(diffOutBase + stores*diffThickness)
	b.St(isa.V(0), base, isa.V(v))
	want = append(want, vregs[v]...)
	b.Halt()
	return diffProgram{prog: b.MustBuild(), want: want, wantAux: wantAux, hasReduction: hasReduction}
}

// runDiff executes dp on a machine and compares against the reference.
func runDiff(t *testing.T, dp diffProgram, kind variant.Kind, tweak func(*Config)) {
	t.Helper()
	cfg := Default(kind)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(dp.prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%v: %v\n%s", kind, err, dp.prog.Listing())
	}
	got := m.Shared().Snapshot(diffOutBase, len(dp.want))
	for i := range dp.want {
		if got[i] != dp.want[i] {
			t.Fatalf("%v: out[%d] = %d, want %d\n%s", kind, i, got[i], dp.want[i], dp.prog.Listing())
		}
	}
	for i, w := range dp.wantAux {
		if got := m.Shared().Peek(int64(diffAuxBase + i)); got != w {
			t.Fatalf("%v: aux[%d] = %d, want %d", kind, i, got, w)
		}
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		dp := genDiffProgram(rng)
		runDiff(t, dp, variant.SingleInstruction, nil)
		runDiff(t, dp, variant.SingleInstruction, func(c *Config) { c.Parallel = true })
		runDiff(t, dp, variant.SingleInstruction, func(c *Config) {
			c.Parallel = true
			c.LaneParallelThreshold = 4 // force lane chunking at thickness 11
		})
		runDiff(t, dp, variant.MultiInstruction, nil)
		for _, bound := range []int{1, 3, 7} {
			bound := bound
			runDiff(t, dp, variant.Balanced, func(c *Config) { c.BalancedBound = bound })
		}
		// Auto-splitting must not change semantics (fragment-safe
		// programs only: fragments reject flow-level reductions).
		if !dp.hasReduction {
			runDiff(t, dp, variant.SingleInstruction, func(c *Config) { c.AutoSplitThreshold = 4 })
		}
	}
}

// genNUMADiff builds a random NUMA-mode sequential program (bunch length
// drawn per trial) exercising store-to-load forwarding and bunch
// boundaries, with its sequential reference.
func genNUMADiff(rng *rand.Rand) diffProgram {
	b := isa.NewBuilder("numadiff")
	b.Label("main")
	bunch := 1 + rng.Intn(9)
	b.NumaImm(int64(bunch))

	sregs := [4]int64{}
	memRef := map[int64]int64{}
	var want []int64
	steps := 8 + rng.Intn(30)
	outSlots := 0
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.MIN, isa.MAX}
	for k := 0; k < steps; k++ {
		switch rng.Intn(6) {
		case 0: // LDI
			d := 1 + rng.Intn(3)
			v := int64(rng.Intn(31) - 15)
			b.Ldi(isa.S(d), v)
			sregs[d] = v
		case 1: // store to a small shared region
			a := int64(diffAuxBase + rng.Intn(4))
			r := 1 + rng.Intn(3)
			b.St(isa.RegNone, a, isa.S(r))
			memRef[a] = sregs[r]
		case 2: // load back (forwarding within the bunch must hold)
			a := int64(diffAuxBase + rng.Intn(4))
			d := 1 + rng.Intn(3)
			b.Ld(isa.S(d), isa.RegNone, a)
			sregs[d] = memRef[a]
		case 3: // spill a result to the output region
			r := 1 + rng.Intn(3)
			b.St(isa.RegNone, int64(diffOutBase+outSlots), isa.S(r))
			want = append(want, sregs[r])
			outSlots++
		default: // ALU
			op := ops[rng.Intn(len(ops))]
			d, a2 := 1+rng.Intn(3), 1+rng.Intn(3)
			imm := int64(rng.Intn(9) - 4)
			b.ALUI(op, isa.S(d), isa.S(a2), imm)
			sregs[d] = isa.Eval(op, sregs[a2], imm)
		}
	}
	b.Op(isa.PRAM)
	b.Halt()
	return diffProgram{prog: b.MustBuild(), want: want}
}

func TestDifferentialNUMAPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		dp := genNUMADiff(rng)
		runDiff(t, dp, variant.SingleInstruction, nil)
		runDiff(t, dp, variant.MultiInstruction, nil)
		for _, bound := range []int{1, 2, 5} {
			bound := bound
			runDiff(t, dp, variant.Balanced, func(c *Config) { c.BalancedBound = bound })
		}
		runDiff(t, dp, variant.ConfigurableSingleOperation, nil)
	}
}
