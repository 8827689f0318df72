package machine

import (
	"slices"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/tcf"
)

// Fused backend (Config.Backend == BackendFused): the step engine runs the
// program fuse.Compile built at load time. Dispatch stays inside the same
// runGroup/runFlow loop all six variant policies share — only the innermost
// execution switches change:
//
//   - execWhole routes through the compiled instruction's class instead of
//     re-deriving it from opcode metadata every step;
//   - execLaneRange routes lane ranges (including lane-parallel chunks)
//     through compiled kernels and bulk memory kernels;
//   - runFlow and execNUMABunch walk fused straight-line runs — several
//     register instructions back to back with registers untouched by any
//     step machinery in between.
//
// Everything the run boundary owns — shared references, fault decisions,
// refSeq accounting, discipline records, combining traffic, trace slices —
// executes on exactly the interpreter's code paths, which is what makes the
// two backends bit-identical (the corpus and chaos differentials prove it).

// execWholeFused is execWhole on a compiled instruction: the class and
// thickness discrimination was done at compile time.
func (x *groupExec) execWholeFused(f *tcf.Flow, slot int, in isa.Instr, fi *fuse.Instr) {
	if fragmentUnsafe(f, in) {
		x.failf("flow %d: %s funnels thread-wise data into flow-common state inside an auto-split fragment; disable AutoSplitThreshold for this program", f.ID, in.Op)
		return
	}
	switch fi.Class {
	case fuse.ClassControl:
		x.record(f, slot, in, 0, 1, f.Mode == tcf.NUMA)
		x.scalarOps++
		x.applyControl(f, in)

	case fuse.ClassReg:
		if !fi.Thick {
			x.record(f, slot, in, 0, 1, f.Mode == tcf.NUMA)
			if fi.Kern != nil {
				fi.Kern(x.fenv, f, 0, 1)
			} else {
				x.execAtomic(f, in)
			}
			x.scalarOps++
			f.PC++
			return
		}
		w := f.Lanes()
		x.record(f, slot, in, 0, w, f.Mode == tcf.NUMA)
		x.execLanes(f, in, w)
		x.ops += int64(w)
		f.PC++

	case fuse.ClassMem:
		if !fi.Thick {
			x.record(f, slot, in, 0, 1, f.Mode == tcf.NUMA)
			x.execAtomic(f, in)
			x.scalarOps++
			f.PC++
			return
		}
		w := f.Lanes()
		x.record(f, slot, in, 0, w, f.Mode == tcf.NUMA)
		x.execLanes(f, in, w)
		x.ops += int64(w)
		f.PC++

	default: // fuse.ClassAtomic
		w := 1
		if fi.Thick {
			w = f.Lanes()
		}
		x.record(f, slot, in, 0, w, f.Mode == tcf.NUMA)
		x.execAtomic(f, in)
		if w <= 1 {
			x.scalarOps++
		} else {
			x.ops += int64(w)
		}
		f.PC++
	}
}

// fusedLaneRange executes lanes [first, first+n) of the compiled instruction
// at f.PC, returning false when the caller must fall back to the
// interpreter's per-lane reference path (the oracle for refSeq accounting,
// discipline records, forwarding and NUMA stalls).
func (x *groupExec) fusedLaneRange(f *tcf.Flow, fi *fuse.Instr, first, n int) bool {
	if fi.Class == fuse.ClassReg {
		if fi.Kern == nil {
			return false
		}
		fi.Kern(x.fenv, f, first, first+n)
		return true
	}
	// Bulk shared-memory kernels engage only on the uniform fast path:
	// fault-free, no discipline recording, lockstep (buffered) semantics,
	// PRAM mode, no store-to-load forwarding. Per-reference bookkeeping is
	// then loop-invariant — refSeq never advances without a fault plan — so
	// hoisting it out of the lane loop is observationally identical.
	if n <= 0 || x.m.cfg.FaultPlan != nil || x.disc || x.immediate || x.fwdOn || f.Mode == tcf.NUMA {
		return false
	}
	in := &fi.In
	end := first + n
	sh := x.m.shared
	// maxDist only grows toward the group's row maximum; once it saturates
	// the per-lane module lookup is dead work, so the loops below drop it.
	rowMax := x.rowMax
	switch in.Op {
	case isa.LD:
		if !in.Rd.IsVector() {
			return false
		}
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
		dst := f.Vector(in.Rd)
		maxDist := x.maxDist
		if in.Ra.IsVector() {
			av := f.Vector(in.Ra)
			imm := in.Imm
			rd := sh.Reader()
			i := first
			for ; i < end && maxDist < rowMax; i++ {
				addr := av[i] + imm
				if d := row[sh.ModuleOf(addr)]; d > maxDist {
					maxDist = d
				}
				dst[i] = rd.Peek(addr)
			}
			for ; i < end; i++ {
				dst[i] = rd.Peek(av[i] + imm)
			}
		} else {
			// Flow-common broadcast: one word, fetched once per lane in the
			// reference path; the module distance is the same every time.
			base := in.Imm
			if in.Ra != isa.RegNone {
				base += f.Scalar(in.Ra)
			}
			if d := row[sh.ModuleOf(base)]; d > maxDist {
				maxDist = d
			}
			v := sh.Peek(base)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedReads += int64(n)
		return true

	case isa.ST:
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
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
		writes := slices.Grow(x.writes, n)
		fid := f.ID
		maxDist := x.maxDist
		i := first
		for ; i < end && maxDist < rowMax; i++ {
			addr := base
			if av != nil {
				addr += av[i]
			}
			val := bs
			if bv != nil {
				val = bv[i]
			}
			if d := row[sh.ModuleOf(addr)]; d > maxDist {
				maxDist = d
			}
			writes = append(writes, mem.Write{Addr: addr, Val: val,
				Key: mem.Key{Flow: fid, Thread: i, Seq: 0}})
		}
		for ; i < end; i++ {
			addr := base
			if av != nil {
				addr += av[i]
			}
			val := bs
			if bv != nil {
				val = bv[i]
			}
			writes = append(writes, mem.Write{Addr: addr, Val: val,
				Key: mem.Key{Flow: fid, Thread: i, Seq: 0}})
		}
		x.writes = writes
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedWrites += int64(n)
		return true
	}
	return false
}

// runFusedRun executes the fused straight-line run starting at f.PC: up to
// maxInstrs register instructions back to back via their compiled kernels,
// with per-instruction fetch, trace and budget accounting identical to the
// generic loop. It returns the number of window slots consumed; 0 means the
// caller must take the generic path (not a register run, a fragment — whose
// safety check lives there — or a lane range wide enough to fan out to the
// chunk pool).
func (x *groupExec) runFusedRun(f *tcf.Flow, slot int, plan StepPlan, budget *int, maxInstrs int) int {
	fp := x.m.fprog
	if f.PC < 0 || f.PC >= len(fp.Code) || f.IsFragment {
		return 0
	}
	fi := &fp.Code[f.PC]
	if fi.Class != fuse.ClassReg || fi.Kern == nil {
		return 0
	}
	// Lane ranges at or above the chunking threshold take the generic path,
	// where execLanes fans them out to the worker pool exactly as the
	// interpreter would.
	chunky := x.m.cfg.Parallel && !x.immediate && x.m.cfg.LaneParallelThreshold > 0
	th := x.m.cfg.LaneParallelThreshold
	numa := f.Mode == tcf.NUMA
	trace := x.m.cfg.TraceEnabled
	consumed := 0
	for {
		w := 1
		if fi.Thick {
			w = f.Lanes()
		}
		if fi.Thick && chunky && w >= th {
			break
		}
		x.fetches++
		f.InstrFetches++
		if plan.PerThreadFetch {
			if extra := int64(w - 1); extra > 0 {
				x.fetches += extra
				f.InstrFetches += extra
			}
		}
		if trace {
			x.slices = append(x.slices, SliceExec{
				Group: x.g.Index, Slot: slot, Flow: f.ID, PC: f.PC, Op: fi.In.Op,
				FirstLane: 0, Lanes: w, NUMA: numa,
			})
		}
		fi.Kern(x.fenv, f, 0, w)
		if fi.Thick {
			x.ops += int64(w)
		} else {
			x.scalarOps++
		}
		if plan.Budget > 0 {
			*budget -= w
		}
		f.PC++
		consumed++
		if consumed >= maxInstrs || fi.Run <= 1 {
			break
		}
		fi = &fp.Code[f.PC]
		if fi.Class != fuse.ClassReg || fi.Kern == nil {
			break
		}
	}
	return consumed
}
