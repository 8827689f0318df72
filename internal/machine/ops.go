package machine

import (
	"fmt"
	"sync"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/tcf"
)

// aluEval computes a binary ALU operation. Division and modulo by zero yield
// zero (the simulated ALU is trap-free). Shifts clamp to [0,63].
func aluEval(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.DIV:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.MOD:
		if b == 0 {
			return 0
		}
		return a % b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << clampShift(b)
	case isa.SHR:
		return a >> clampShift(b)
	case isa.MIN:
		if a < b {
			return a
		}
		return b
	case isa.MAX:
		if a > b {
			return a
		}
		return b
	case isa.SEQ:
		return b2i(a == b)
	case isa.SNE:
		return b2i(a != b)
	case isa.SLT:
		return b2i(a < b)
	case isa.SLE:
		return b2i(a <= b)
	case isa.SGT:
		return b2i(a > b)
	case isa.SGE:
		return b2i(a >= b)
	}
	panic(fmt.Sprintf("machine: aluEval on %s", op))
}

func clampShift(b int64) uint {
	if b < 0 {
		return 0
	}
	if b > 63 {
		return 63
	}
	return uint(b)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// isThick reports whether the instruction executes one operation per lane of
// the flow (as opposed to a single flow-level operation). Thickness is an
// instruction property — the flow argument is kept for call-site symmetry;
// isa.Instr.Thick is the single source of truth (shared with the fuse
// compiler).
func isThick(f *tcf.Flow, in isa.Instr) bool {
	return in.Thick()
}

// width returns the number of operation slices the instruction occupies for
// this flow: Lanes() for thick instructions, 1 for flow-level ones.
func width(f *tcf.Flow, in isa.Instr) int {
	if isThick(f, in) {
		return f.Lanes()
	}
	return 1
}

// laneVal reads operand r for lane i: scalars broadcast, vector reads beyond
// the lane count (possible only for flow-level instructions on thin flows)
// yield zero.
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

// fragmentUnsafe reports whether an instruction cannot execute correctly in
// an auto-split fragment: anything funnelling thread-wise data into the
// flow-common scalar state would act on the fragment's lanes only
// (reductions, and scalar-destination operations with thread-wise sources —
// the lane-0 extract). The OS may only fragment flows whose continuation is
// free of such instructions; the machine fails loudly otherwise.
func fragmentUnsafe(f *tcf.Flow, in isa.Instr) bool {
	if !f.IsFragment {
		return false
	}
	if in.Op.IsReduction() {
		return true
	}
	if !in.Rd.IsScalar() {
		return false
	}
	switch in.Op.Info().Args {
	case isa.ArgsDA:
		return in.Ra.IsVector()
	case isa.ArgsDAB:
		return in.Ra.IsVector() || (!in.HasImm && in.Rb.IsVector())
	case isa.ArgsDABC:
		return in.Ra.IsVector() || in.Rb.IsVector() || in.Rc.IsVector()
	case isa.ArgsDMem:
		return in.Ra.IsVector()
	}
	return false
}

// prefixRoute records where a multiprefix result must be delivered at the
// end of the step.
type prefixRoute struct {
	flow *tcf.Flow
	reg  isa.Reg
	lane int
}

// pendingContrib is a combining contribution gathered during the parallel
// phase, before the global combiners see it. The route is stored by value
// (hasRoute distinguishes plain multioperations) so accumulating
// contributions never allocates.
type pendingContrib struct {
	kind     isa.Op
	c        multiop.Contribution
	route    prefixRoute
	hasRoute bool
}

// eventKind tags deferred cross-flow events processed after the parallel
// phase.
type eventKind int

const (
	evSplit eventKind = iota
	evChildDone
	evAutoSplit
	// evFragmentRejoin: an auto-split fragment reached a thickness/mode/
	// structure change; the container resumes at that PC (with the
	// fragment's scalar state — identical across fragments by the
	// fragment-safety guard) once every fragment arrives.
	evFragmentRejoin
)

type armSpec struct {
	thick int
	pc    int
}

type deferredEvent struct {
	kind  eventKind
	flow  *tcf.Flow // split parent, finished child, or auto-split victim
	arms  []armSpec
	thick int // evAutoSplit: the logical thickness to fragment
	pc    int // evFragmentRejoin: where the container resumes
}

// groupCounters is the per-step statistics block of one group's execution —
// every scalar the merge stage folds into Stats. It is split out of
// groupExec so reset can zero it with one struct assignment.
type groupCounters struct {
	ops       int64
	scalarOps int64
	fetches   int64

	anyShared bool
	maxDist   int
	stall     int64

	// Fault-injection accounting (Config.FaultPlan): retransmission and
	// detour stalls inflate cycles, never values.
	faultStall  int64
	retransmits int64
	reroutes    int64

	sharedReads  int64
	sharedWrites int64
	localReads   int64
	localWrites  int64
	multiopRefs  int64
	barriers     int64
	laneChunks   int64
}

// groupExec carries the per-group execution state of one step. Groups run
// independently (optionally on separate goroutines); their outputs are
// merged deterministically afterwards. One arena per group lives on the
// Machine and is reset — never reallocated — every step.
type groupExec struct {
	m *Machine
	g *Group

	// fenv is the group's compiled-kernel environment (fused backend):
	// everything a fuse.Kern may read besides the flow itself.
	fenv fuse.Env

	// plan is the StepPlan stamped at reset; runGroup executes it.
	plan StepPlan
	// immediate caches !plan.Lockstep: XMT-style memory semantics where
	// loads see the current state and stores apply instantly.
	immediate bool

	groupCounters

	// rowMax is the largest group→module distance in this group's row of
	// the distance table — the saturation bound for maxDist, set at build.
	rowMax int

	// refSeq numbers the group's shared references within the step so each
	// one gets an independent deterministic fault decision.
	refSeq int64

	writes   []mem.Write
	contribs []pendingContrib
	events   []deferredEvent
	outputs  []Output
	slices   []SliceExec

	// disc caches "the memory-discipline cross-checker records this step"
	// (Config.MemDiscipline checks and the plan is lockstep); accs is the
	// group's reused recording arena, audited after the merge.
	disc bool
	accs []discAcc

	// fwd is the store-to-load forwarding table of the flow currently
	// executing a NUMA bunch (its own same-step shared stores). The map is
	// allocated once and cleared per bunch; fwdOn gates lookups.
	fwd   map[int64]int64
	fwdOn bool

	// Lane-parallel state: lw holds one private worker arena per lane
	// chunk (chunk 0 runs inline on this groupExec), chunks the dispatch
	// records handed to the pool.
	lw     []*groupExec
	chunks []laneChunk
	wg     sync.WaitGroup

	err error
}

// reset prepares the arena for a new step under plan, keeping every
// allocation.
func (x *groupExec) reset(plan StepPlan) {
	x.plan = plan
	x.immediate = !plan.Lockstep
	x.groupCounters = groupCounters{}
	x.refSeq = 0
	x.writes = x.writes[:0]
	x.contribs = x.contribs[:0]
	x.events = x.events[:0]
	x.outputs = x.outputs[:0]
	x.slices = x.slices[:0]
	x.disc = plan.Lockstep && x.m.cfg.MemDiscipline.Checks()
	x.accs = x.accs[:0]
	x.fwdOn = false
	x.err = nil
}

// resetLaneWorker prepares a worker clone for one lane chunk whose shared
// references start at refSeq (the parent's sequence at the chunk's first
// lane, keeping fault decisions identical to serial execution).
func (x *groupExec) resetLaneWorker(refSeq int64) {
	x.immediate = false
	x.groupCounters = groupCounters{}
	x.refSeq = refSeq
	x.writes = x.writes[:0]
	x.contribs = x.contribs[:0]
	// Lane workers only exist under lockstep plans (execLanes never fans
	// out in immediate mode), so the parent's lockstep gate is implied.
	x.disc = x.m.cfg.MemDiscipline.Checks()
	x.accs = x.accs[:0]
	x.fwdOn = false
	x.err = nil
}

// mergeLaneWorker folds a completed chunk's effects back into the parent in
// lane order: called for chunks 1..n-1 after chunk 0 ran inline, so the
// merged buffers are byte-for-byte what serial execution would have built.
func (x *groupExec) mergeLaneWorker(w *groupExec) {
	x.writes = append(x.writes, w.writes...)
	x.contribs = append(x.contribs, w.contribs...)
	x.accs = append(x.accs, w.accs...)
	x.ops += w.ops
	x.sharedReads += w.sharedReads
	x.sharedWrites += w.sharedWrites
	x.localReads += w.localReads
	x.localWrites += w.localWrites
	x.multiopRefs += w.multiopRefs
	x.stall += w.stall
	x.faultStall += w.faultStall
	x.retransmits += w.retransmits
	x.reroutes += w.reroutes
	x.anyShared = x.anyShared || w.anyShared
	if w.maxDist > x.maxDist {
		x.maxDist = w.maxDist
	}
	if x.err == nil && w.err != nil {
		x.err = w.err
	}
}

func (x *groupExec) failf(format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("machine: group %d: %s", x.g.Index, fmt.Sprintf(format, args...))
	}
}

// failw is failf wrapping a sentinel from the error taxonomy.
func (x *groupExec) failw(sentinel error, format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("machine: group %d: %s: %w", x.g.Index, fmt.Sprintf(format, args...), sentinel)
	}
}

// noteShared records a shared-memory reference for the latency model. With
// a fault plan, the reference may detour around a dead route (extra
// distance) or be lost and retransmitted (backoff stall); both inflate
// cycles without touching the referenced value.
func (x *groupExec) noteShared(addr int64, numaMode bool) {
	module := x.m.shared.ModuleOf(addr)
	dist := x.m.dist[x.g.Index*x.m.nmods+module]
	if plan := x.m.cfg.FaultPlan; plan != nil {
		step := x.m.stats.Steps
		if plan.RouteDown(x.g.Index, module, step) {
			dist += plan.Detour()
			x.reroutes++
		}
		x.refSeq++
		if r, ok := plan.MemRetries(x.g.Index, module, step, x.refSeq); r > 0 {
			if !ok {
				x.failw(ErrFaultUnrecoverable,
					"step %d: shared reference to module %d lost %d times, retries exhausted",
					step, module, r)
				return
			}
			x.retransmits += int64(r)
			x.faultStall += plan.RetryPenalty(r)
		}
	}
	if numaMode {
		// NUMA-mode references stall inline: base + distance cycles.
		x.stall += int64(x.m.cfg.MemLatencyBase + dist)
		return
	}
	x.anyShared = true
	if dist > x.maxDist {
		x.maxDist = dist
	}
}

// loadShared performs a shared-memory read with the step semantics of the
// engine (pre-step snapshot, or immediate in XMT mode) plus store-to-load
// forwarding of the flow's own same-step writes. lane identifies the
// reading thread for the discipline cross-checker; flow-common broadcast
// loads pass lane 0 (one flow-level fetch, not per-lane references).
func (x *groupExec) loadShared(f *tcf.Flow, addr int64, lane int) int64 {
	x.sharedReads++
	if x.disc {
		x.accs = append(x.accs, discAcc{addr: addr, flow: f.ID, lane: lane, pc: f.PC})
	}
	x.noteShared(addr, f.Mode == tcf.NUMA)
	if x.immediate {
		return x.m.shared.Peek(addr)
	}
	if x.fwdOn {
		if v, ok := x.fwd[addr]; ok {
			return v
		}
	}
	return x.m.shared.Peek(addr)
}

// storeShared buffers (or immediately applies) a shared-memory write.
func (x *groupExec) storeShared(f *tcf.Flow, addr, val int64, lane, seq int) {
	x.sharedWrites++
	if x.disc {
		x.accs = append(x.accs, discAcc{addr: addr, flow: f.ID, lane: lane, pc: f.PC, write: true})
	}
	x.noteShared(addr, f.Mode == tcf.NUMA)
	if x.immediate {
		x.m.shared.Poke(addr, val)
		return
	}
	x.writes = append(x.writes, mem.Write{Addr: addr, Val: val,
		Key: mem.Key{Flow: f.ID, Thread: lane, Seq: seq}})
	if x.fwdOn {
		x.fwd[addr] = val
	}
}

// effAddr computes the effective address of a memory operand for lane i.
func effAddr(f *tcf.Flow, in isa.Instr, i int) int64 {
	if in.Ra == isa.RegNone {
		return in.Imm
	}
	return laneVal(f, in.Ra, i) + in.Imm
}

// execLane executes lane i of an elementwise instruction.
func (x *groupExec) execLane(f *tcf.Flow, in isa.Instr, i, seq int) {
	switch {
	case in.Op == isa.LDI:
		f.SetLane(in.Rd, i, in.Imm)
	case in.Op == isa.MOV:
		f.SetLane(in.Rd, i, laneVal(f, in.Ra, i))
	case in.Op == isa.NEG:
		f.SetLane(in.Rd, i, -laneVal(f, in.Ra, i))
	case in.Op == isa.NOT:
		f.SetLane(in.Rd, i, ^laneVal(f, in.Ra, i))
	case in.Op.IsBinaryALU():
		b := in.Imm
		if !in.HasImm {
			b = laneVal(f, in.Rb, i)
		}
		f.SetLane(in.Rd, i, aluEval(in.Op, laneVal(f, in.Ra, i), b))
	case in.Op == isa.SEL:
		v := laneVal(f, in.Rc, i)
		if laneVal(f, in.Ra, i) != 0 {
			v = laneVal(f, in.Rb, i)
		}
		f.SetLane(in.Rd, i, v)
	case in.Op == isa.TID:
		if f.Mode == tcf.NUMA {
			f.SetLane(in.Rd, i, 0)
		} else {
			// Fragments of an auto-split flow carry their logical
			// thread-index offset.
			f.SetLane(in.Rd, i, int64(f.TidOffset+i))
		}
	case in.Op == isa.FID:
		f.SetLane(in.Rd, i, int64(f.ID))
	case in.Op == isa.THICK:
		// Report the logical thickness: a fragment answers for the whole
		// flow it belongs to.
		f.SetLane(in.Rd, i, int64(f.TotalThickness))
	case in.Op == isa.GID:
		f.SetLane(in.Rd, i, int64(x.g.Index))
	case in.Op == isa.PID:
		f.SetLane(in.Rd, i, int64(f.Home))
	case in.Op == isa.NPROC:
		f.SetLane(in.Rd, i, int64(x.m.cfg.TotalProcessors()))
	case in.Op == isa.NGRP:
		f.SetLane(in.Rd, i, int64(x.m.cfg.Groups))
	case in.Op == isa.LD:
		f.SetLane(in.Rd, i, x.loadShared(f, effAddr(f, in, i), i))
	case in.Op == isa.ST:
		x.storeShared(f, effAddr(f, in, i), laneVal(f, in.Rb, i), i, seq)
	case in.Op == isa.LDL:
		x.localReads++
		f.SetLane(in.Rd, i, x.g.Local.Read(effAddr(f, in, i)))
	case in.Op == isa.STL:
		x.localWrites++
		x.g.Local.Write(effAddr(f, in, i), laneVal(f, in.Rb, i))
	case in.Op.IsMultiop():
		x.multiopRefs++
		addr := effAddr(f, in, i)
		x.noteShared(addr, f.Mode == tcf.NUMA)
		kind := in.Op.CombineKind()
		val := laneVal(f, in.Rb, i)
		if x.immediate {
			// XMT-style semantics: combine against the current state,
			// lane order within the flow.
			x.m.shared.Poke(addr, multiop.Apply(kind, x.m.shared.Peek(addr), val))
			return
		}
		x.contribs = append(x.contribs, pendingContrib{
			kind: kind,
			c: multiop.Contribution{Addr: addr, Val: val,
				Key: multiop.Key{Flow: f.ID, Thread: i, Seq: seq}},
		})
	case in.Op.IsMultiprefix():
		x.multiopRefs++
		addr := effAddr(f, in, i)
		x.noteShared(addr, f.Mode == tcf.NUMA)
		kind := in.Op.CombineKind()
		val := laneVal(f, in.Rb, i)
		if x.immediate {
			cur := x.m.shared.Peek(addr)
			f.SetLane(in.Rd, i, cur)
			x.m.shared.Poke(addr, multiop.Apply(kind, cur, val))
			return
		}
		x.contribs = append(x.contribs, pendingContrib{
			kind: kind,
			c: multiop.Contribution{Addr: addr, Val: val,
				Key: multiop.Key{Flow: f.ID, Thread: i, Seq: seq}, WantPrefix: true},
			route:    prefixRoute{flow: f, reg: in.Rd, lane: i},
			hasRoute: true,
		})
	default:
		x.failf("flow %d: opcode %s has no lane semantics", f.ID, in.Op)
	}
}

// execLaneRange executes lanes [first, first+n) of a sliceable instruction
// with seq 0, in lane order. Under the fused backend the range runs through
// the compiled kernel (or bulk memory kernel) when one applies; every other
// case — and the whole interpreter backend — takes the reference per-lane
// path below.
func (x *groupExec) execLaneRange(f *tcf.Flow, in isa.Instr, first, n int) {
	if fp := x.m.fprog; fp != nil && x.fusedLaneRange(f, &fp.Code[f.PC], first, n) {
		return
	}
	x.execLaneRangeInterp(f, in, first, n)
}

// execLaneRangeInterp is the reference lane-range loop — exactly the serial
// execLane loop, but the hot op classes hoist register-file lookups out of
// the lane loop. Vector operands of a sliceable instruction always span the
// full lane count (Flow.Vector sizes them to Lanes()), so the bulk loops
// index directly.
func (x *groupExec) execLaneRangeInterp(f *tcf.Flow, in isa.Instr, first, n int) {
	end := first + n
	switch {
	case in.Op.IsBinaryALU() && in.Rd.IsVector():
		dst := f.Vector(in.Rd)
		var av, bv []int64
		var as, bs int64
		if in.Ra.IsVector() {
			av = f.Vector(in.Ra)
		} else {
			as = f.Scalar(in.Ra)
		}
		switch {
		case in.HasImm:
			bs = in.Imm
		case in.Rb.IsVector():
			bv = f.Vector(in.Rb)
		default:
			bs = f.Scalar(in.Rb)
		}
		op := in.Op
		switch {
		case av != nil && bv != nil:
			for i := first; i < end; i++ {
				dst[i] = aluEval(op, av[i], bv[i])
			}
		case av != nil:
			for i := first; i < end; i++ {
				dst[i] = aluEval(op, av[i], bs)
			}
		case bv != nil:
			for i := first; i < end; i++ {
				dst[i] = aluEval(op, as, bv[i])
			}
		default:
			v := aluEval(op, as, bs)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	case in.Op == isa.LDI && in.Rd.IsVector():
		dst := f.Vector(in.Rd)
		for i := first; i < end; i++ {
			dst[i] = in.Imm
		}
	case in.Op == isa.MOV && in.Rd.IsVector():
		dst := f.Vector(in.Rd)
		if in.Ra.IsVector() {
			copy(dst[first:end], f.Vector(in.Ra)[first:end])
		} else {
			v := f.Scalar(in.Ra)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	case in.Op == isa.TID && in.Rd.IsVector():
		dst := f.Vector(in.Rd)
		if f.Mode == tcf.NUMA {
			for i := first; i < end; i++ {
				dst[i] = 0
			}
		} else {
			for i := first; i < end; i++ {
				dst[i] = int64(f.TidOffset + i)
			}
		}
	case in.Op == isa.LD && in.Rd.IsVector():
		dst := f.Vector(in.Rd)
		if in.Ra.IsVector() {
			av := f.Vector(in.Ra)
			for i := first; i < end; i++ {
				dst[i] = x.loadShared(f, av[i]+in.Imm, i)
			}
		} else {
			// Flow-common broadcast: every lane reads the one word the flow
			// fetched, so the discipline checker sees a single thread (lane
			// 0), not per-lane concurrent reads.
			base := in.Imm
			if in.Ra != isa.RegNone {
				base += f.Scalar(in.Ra)
			}
			for i := first; i < end; i++ {
				dst[i] = x.loadShared(f, base, 0)
			}
		}
	case in.Op == isa.ST:
		var av, bv []int64
		var bs int64
		base := in.Imm
		if in.Ra.IsVector() {
			av = f.Vector(in.Ra)
		} else if in.Ra != isa.RegNone {
			base += f.Scalar(in.Ra)
		}
		if in.Rb.IsVector() {
			bv = f.Vector(in.Rb)
		} else {
			bs = f.Scalar(in.Rb)
		}
		for i := first; i < end; i++ {
			addr := base
			if av != nil {
				addr += av[i]
			}
			val := bs
			if bv != nil {
				val = bv[i]
			}
			x.storeShared(f, addr, val, i, 0)
		}
	default:
		for i := first; i < end; i++ {
			x.execLane(f, in, i, 0)
		}
	}
}

// execAtomic executes flow-level instructions: reductions, prints, and the
// degenerate scalar forms. Control instructions are handled by the caller.
func (x *groupExec) execAtomic(f *tcf.Flow, in isa.Instr) {
	switch {
	case in.Op.IsReduction():
		kind := in.Op.CombineKind()
		acc := multiop.Identity(kind)
		v := f.Vector(in.Ra)
		for _, e := range v {
			acc = multiop.Apply(kind, acc, e)
		}
		f.SetScalar(in.Rd, acc)
	case in.Op == isa.PRINT:
		out := Output{Flow: f.ID, Step: x.m.stats.Steps}
		switch {
		case in.HasImm:
			out.Values = []int64{in.Imm}
		case in.Ra.IsScalar():
			out.Values = []int64{f.Scalar(in.Ra)}
		default:
			out.Values = append([]int64(nil), f.Vector(in.Ra)...)
		}
		x.outputs = append(x.outputs, out)
	case in.Op == isa.PRINTS:
		x.outputs = append(x.outputs, Output{Flow: f.ID, Step: x.m.stats.Steps, Text: in.Sym})
	case in.Op == isa.NOP:
	default:
		x.execLane(f, in, 0, 0)
	}
}
