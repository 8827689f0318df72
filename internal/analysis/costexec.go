package analysis

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/variant"
)

// The abstract cost executor. It mirrors the step engine's lockstep
// single-instruction shapes (SingleInstruction, SingleOperation,
// ConfigurableSingleOperation, FixedThickness) instruction for instruction
// over the compressed value domain of costval.go, reproducing exactly the
// accounting the real engine folds into Stats: per-group operation counts,
// the pipeline-fill/latency-hiding overhead formula, NUMA stall charging,
// same-step write arbitration, combining-operation resolution, split/join
// retirement with Table 1 flow-branch rates, and storage-buffer promotion
// with task-switch rates. Because tcf-e programs are closed (no external
// input), corpus-scale programs execute fully concretely and every
// prediction is exact — equal to the measured Stats of a real run on either
// backend under either scheduler.
//
// Whenever a value the analysis *needs* (a branch condition, a shared
// address, a SETTHICK operand) degrades to unknown — or an analysis budget
// runs out — the executor aborts with costStop and the report downgrades to
// sound lower bounds: everything accounted before the stop has provably
// been spent by any real run reaching that point, because stats accumulate
// only at the fold/finish boundaries the engine itself commits at.

// costPageWords is the memory system's page size: the footprint counts
// pages of it, and the abstract memory is stored in pages of it.
const costPageWords = 1 << mem.PageShift

// costStop aborts abstract execution; run() recovers it into a Min-only
// report.
type costStop struct{ reason string }

type flowState uint8

const (
	fsReady flowState = iota
	fsBlocked
	fsWaiting
	fsDone
)

type flowMode uint8

const (
	amPRAM flowMode = iota
	amNUMA
)

// absFlow is the abstract image of one tcf.Flow: PC, scheduling state,
// mode/thickness, the 16 scalar registers as abstract values and the 32
// vector registers as full-backing compressed images.
type absFlow struct {
	id             int
	pc             int
	state          flowState
	mode           flowMode
	thickness      int64
	totalThickness int64
	bunch          int64
	tidOffset      int64
	home           int

	scalars   [isa.NumSRegs]aval
	vecs      [isa.NumVRegs]avec
	callStack []int

	parent       *absFlow
	resumePC     int
	liveChildren int
}

func (f *absFlow) lanes() int {
	if f.mode == amNUMA {
		return 1
	}
	return int(f.thickness)
}

func (f *absFlow) scalar(r isa.Reg) aval { return f.scalars[r.Index()] }

// read returns operand r of f as a w-lane view: scalar registers
// broadcast, vector registers use the engine's truncate/zero-extend Vector
// semantics.
func (ex *costExec) read(f *absFlow, r isa.Reg, w int) avec {
	if r.IsScalar() {
		v := f.scalars[r.Index()]
		if !v.ok {
			return unkVec(w)
		}
		return uniVec(w, v.v)
	}
	return ex.ar.view(f.vecs[r.Index()], w)
}

// writeDest stores a w-lane result: scalar destinations take lane 0 (only
// reachable with w == 1), vector destinations go through setVec.
func (f *absFlow) writeDest(r isa.Reg, res avec, cap int) {
	if r.IsScalar() {
		f.scalars[r.Index()] = res.lane(0)
		return
	}
	f.setVec(r.Index(), res, cap)
}

// setVec overwrites the low res.n lanes of vector register idx and keeps
// the tail of a wider backing, as the engine's SetLane loop does. A
// concrete result is copied into the register's own buffer, so a register
// never aliases another register or an arena temporary.
func (f *absFlow) setVec(idx int, res avec, cap int) {
	r := &f.vecs[idx]
	if r.n <= res.n {
		r.kind, r.n, r.base, r.stride = res.kind, res.n, res.base, res.stride
		if res.kind == cvConc {
			copy(r.grow(res.n), res.vals)
		}
		return
	}
	switch {
	case res.kind == cvUni && r.kind == cvUni && res.base == r.base,
		res.kind == cvAff && r.kind == cvAff && res.base == r.base && res.stride == r.stride:
		// The result continues the backing's closed form: nothing changes.
	case res.kind == cvUnk || r.kind == cvUnk || r.n > cap:
		r.kind = cvUnk
	default:
		buf := r.toConc(r.n)
		for i := 0; i < res.n; i++ {
			buf[i] = res.at(i)
		}
	}
}

// setLane point-updates lane i of vector register idx after growing it to
// at least lanes lanes (Flow.Vector grows to Lanes() before indexing). The
// register keeps its closed form while the lane already holds v and is
// made concrete in its own buffer once otherwise, so a run of updates
// costs one copy plus O(1) per lane.
func (f *absFlow) setLane(idx, i, lanes, cap int, v aval) {
	r := &f.vecs[idx]
	if n := max(lanes, r.n, i+1); n > r.n {
		switch {
		case r.kind == cvUni && r.base == 0, r.kind == cvUnk:
			r.n = n
		case n <= cap:
			r.toConc(n)
		default:
			r.kind, r.n = cvUnk, n
		}
	}
	switch {
	case !v.ok || r.kind == cvUnk:
		// Unknown lanes poison the whole register conservatively.
		r.kind = cvUnk
	case r.kind == cvConc:
		r.vals[i] = v.v
	case r.at(i) == v.v:
	case r.n > cap:
		r.kind = cvUnk
	default:
		r.toConc(r.n)[i] = v.v
	}
}

// grow resizes the register's own buffer to n lanes, reallocating only
// when it is too small, and returns it without initializing it.
func (r *avec) grow(n int) []int64 {
	if cap(r.vals) < n {
		r.vals = make([]int64, n)
	}
	r.vals = r.vals[:n]
	return r.vals
}

// toConc turns a register of known kind into its concrete image of n >=
// r.n lanes, zero-extended, in the register's own buffer.
func (r *avec) toConc(n int) []int64 {
	old := *r
	var buf []int64
	if old.kind == cvConc && cap(old.vals) < n {
		buf = make([]int64, n)
		copy(buf, old.vals)
		r.vals = buf
	} else {
		buf = r.grow(n)
	}
	if old.kind != cvConc {
		for i := 0; i < old.n; i++ {
			buf[i] = old.at(i)
		}
	}
	clear(buf[old.n:])
	r.kind, r.n = cvConc, n
	return buf
}

// recycle zeroes a Done flow for reuse as a new one, keeping its register
// buffers and call-stack capacity.
func (f *absFlow) recycle() {
	vecs, calls := f.vecs, f.callStack[:0]
	*f = absFlow{callStack: calls}
	for i := range vecs {
		f.vecs[i].vals = vecs[i].vals[:0]
	}
}

// bufWords is the flow's footprint in 8-byte words, buffers included.
func (f *absFlow) bufWords() int {
	n := int(unsafe.Sizeof(*f))/8 + cap(f.callStack)
	for i := range f.vecs {
		n += cap(f.vecs[i].vals)
	}
	return n
}

// setThickness mirrors Flow.SetThickness. The engine zero-extends every
// allocated vector backing; in the abstract domain absent tail lanes
// already read as zero, so no register mutation is needed.
func (f *absFlow) setThickness(t int64) {
	f.mode = amPRAM
	f.thickness = t
	f.totalThickness = t
}

// absMem is an abstract word store (shared or group-local). Out-of-range
// peeks read zero and pokes are dropped, exactly like mem.Shared.Peek/Poke
// and mem.Local. At most budget distinct words are tracked: a write to an
// untracked word past the budget is dropped and marks the store lost, so
// untracked words read unknown from then on. loseAll (a bulk symbolic
// write) forgets every word the same way — cost accounting stays exact.
//
// Words live in lazily allocated dense pages; each cell records whether it
// was never written, holds a known value, or holds an unknown one.
type absMem struct {
	pages  []*memPage
	size   int64
	budget int
	used   int // cells written since the last loseAll
	lost   bool
}

const (
	cellFree uint8 = iota
	cellKnown
	cellUnknown
)

type memPage struct {
	val   [costPageWords]int64
	state [costPageWords]uint8
}

// reset empties the store for a new analysis, keeping its pages.
func (m *absMem) reset(size int64, budget int) {
	for _, p := range m.pages {
		if p != nil {
			clear(p.state[:])
		}
	}
	*m = absMem{pages: m.pages, size: size, budget: budget}
}

// pageWords is the size of the store's page table and pages in 8-byte
// words.
func (m *absMem) pageWords() int {
	n := len(m.pages)
	for _, p := range m.pages {
		if p != nil {
			n += costPageWords + costPageWords/8
		}
	}
	return n
}

func (m *absMem) peek(addr int64) aval {
	if addr < 0 || addr >= m.size {
		return known(0)
	}
	state := cellFree
	pg := int(addr >> mem.PageShift)
	var p *memPage
	if pg < len(m.pages) {
		if p = m.pages[pg]; p != nil {
			state = p.state[addr&(costPageWords-1)]
		}
	}
	switch {
	case state == cellKnown:
		return known(p.val[addr&(costPageWords-1)])
	case state == cellUnknown, m.lost:
		return unknown
	}
	return known(0)
}

func (m *absMem) poke(addr int64, v aval) {
	if addr < 0 || addr >= m.size {
		return
	}
	pg := int(addr >> mem.PageShift)
	var p *memPage
	if pg < len(m.pages) {
		p = m.pages[pg]
	}
	off := addr & (costPageWords - 1)
	if p == nil || p.state[off] == cellFree {
		if m.used >= m.budget {
			m.lost = true
			return
		}
		m.used++
	}
	if p == nil {
		if pg >= len(m.pages) {
			m.pages = append(m.pages, make([]*memPage, pg+1-len(m.pages))...)
		}
		p = new(memPage)
		m.pages[pg] = p
	}
	if v.ok {
		p.state[off], p.val[off] = cellKnown, v.v
	} else {
		p.state[off] = cellUnknown
	}
}

func (m *absMem) loseAll() {
	for _, p := range m.pages {
		if p != nil {
			clear(p.state[:])
		}
	}
	m.used = 0
	m.lost = true
}

// absWrite is one buffered same-step shared write. A uniform-address thick
// store coalesces into a single record covering threads [0, count);
// arbitration still sees the lowest key of the range.
type absWrite struct {
	addr              int64
	val               aval
	flow, thread, seq int
	count             int64
}

// absContrib is one combining-operation contribution (multiop.Contrib).
type absContrib struct {
	kind              isa.Op
	addr              int64
	val               aval
	flow, thread, seq int
	wantPrefix        bool
	rd                isa.Reg
	rflow             *absFlow
}

type absEventKind uint8

const (
	aevSplit absEventKind = iota
	aevChildDone
)

type absArm struct {
	thick int64
	pc    int
}

type absEvent struct {
	kind absEventKind
	flow *absFlow
	arms []absArm
}

// costCounters mirrors the per-step groupCounters the backend folds.
type costCounters struct {
	ops, scalarOps, fetches                                         int64
	sharedReads, sharedWrites, localReads, localWrites, multiopRefs int64
	stall, barriers                                                 int64
	anyShared                                                       bool
	maxDist                                                         int
}

type absGroup struct {
	index             int
	resident, pending []*absFlow
	local             absMem
	cnt               costCounters
	err               string
	fwd               map[int64]aval
	fwdOn             bool
}

func (g *absGroup) beginStep() {
	g.cnt = costCounters{}
	g.err = ""
}

func (g *absGroup) fail(msg string) {
	if g.err == "" {
		g.err = msg
	}
}

// load mirrors StorageBuf.Load: live residents plus everything pending.
func (g *absGroup) load() int {
	n := len(g.pending)
	for _, f := range g.resident {
		if f.state != fsDone {
			n++
		}
	}
	return n
}

// costTotals mirrors the Stats fields the report predicts.
type costTotals struct {
	steps, cycles, ops, scalarOps, fetches                          int64
	sharedReads, sharedWrites, localReads, localWrites, multiopRefs int64
	overhead, stall, branchCycles, switchCycles, barriers           int64
	splits, joins, flowsCreated, maxLiveFlows                       int64
}

type costExec struct {
	c     *codegen.Compiled
	prog  *isa.Program
	p     CostParams
	pol   variant.Policy
	props variant.Properties

	groups    []*absGroup
	groupBuf  []absGroup
	nextID    int
	freeFlows []*absFlow // Done flows compact dropped, for newFlow to reuse

	shared absMem
	nmods  int
	// dist is the group-to-module distance, row-major by group.
	dist       []int
	moduleRefs []int64

	st       costTotals
	maxThick int64

	// live and ready count the flows not Done and the Ready ones; every
	// state change goes through setState to keep them.
	live, ready int

	// The step's buffered shared writes, combining contributions and
	// split/join events, appended in group order as the groups run, which
	// is the engine's merge order.
	pendingWrites   []absWrite
	pendingContribs []absContrib
	stepEvents      []absEvent
	// stepArms backs the split events' arm lists; growing it leaves the
	// lists already handed out intact.
	stepArms []absArm

	conflicts     int64
	conflictsLost bool
	// pages is the set of shared pages any flow touched (the footprint);
	// footLost marks it incomplete.
	pages    pageSet
	footLost bool

	ar       vecArena
	laneLeft int64
}

// pageSet is a set of page numbers as a lazily grown bitset with a count.
type pageSet struct {
	bits []uint64
	n    int64
}

func (s *pageSet) reset() {
	clear(s.bits)
	s.n = 0
}

func (s *pageSet) add(pg int64) {
	w := int(pg >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if bit := uint64(1) << (pg & 63); s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		s.n++
	}
}

// execPool recycles executors between calls: memory pages, flows with
// their register buffers, the arena and the step buffers are reused, so a
// warm admission-path analysis allocates little beyond its report.
var execPool sync.Pool

// maxPooledWords caps the buffer words an executor may hold when it is
// returned to execPool; a bigger one is left to the garbage collector, so
// one huge program does not pin its memory.
const maxPooledWords = 1 << 17

func newCostExec(c *codegen.Compiled, p CostParams, pol variant.Policy) *costExec {
	ex, _ := execPool.Get().(*costExec)
	if ex == nil {
		ex = new(costExec)
	}
	old := *ex
	*ex = costExec{
		c:               c,
		prog:            c.Program,
		p:               p,
		pol:             pol,
		props:           pol.Props(),
		groups:          old.groups[:0],
		groupBuf:        old.groupBuf,
		freeFlows:       old.freeFlows,
		shared:          old.shared,
		nmods:           p.Groups,
		dist:            old.dist[:0],
		moduleRefs:      make([]int64, p.Groups),
		pendingWrites:   old.pendingWrites[:0],
		pendingContribs: old.pendingContribs[:0],
		stepEvents:      old.stepEvents[:0],
		stepArms:        old.stepArms[:0],
		pages:           old.pages,
		ar:              vecArena{cap: p.MaxConcreteLanes, buf: old.ar.buf},
		laneLeft:        p.MaxLaneWork,
	}
	ex.shared.reset(int64(p.SharedWords), p.MaxTrackedWords)
	ex.pages.reset()
	for gi := 0; gi < p.Groups; gi++ {
		for m := 0; m < ex.nmods; m++ {
			ex.dist = append(ex.dist, p.Topology.Distance(gi, m))
		}
	}
	for i := range ex.groupBuf {
		g := &ex.groupBuf[i]
		ex.freeFlows = append(ex.freeFlows, g.resident...)
		ex.freeFlows = append(ex.freeFlows, g.pending...)
	}
	if cap(ex.groupBuf) < p.Groups {
		ex.groupBuf = make([]absGroup, p.Groups)
	}
	ex.groupBuf = ex.groupBuf[:p.Groups]
	for gi := range ex.groupBuf {
		g := &ex.groupBuf[gi]
		g.local.reset(int64(p.LocalWords), p.MaxTrackedWords)
		*g = absGroup{
			index: gi, local: g.local, fwd: g.fwd,
			resident: g.resident[:0], pending: g.pending[:0],
		}
		ex.groups = append(ex.groups, g)
	}
	return ex
}

// release returns the executor to execPool unless its buffers outgrew
// maxPooledWords. The report must not alias anything the executor keeps.
func (ex *costExec) release() {
	words := len(ex.ar.buf) + len(ex.pages.bits) + ex.shared.pageWords() +
		(cap(ex.pendingWrites)*int(unsafe.Sizeof(absWrite{}))+
			cap(ex.pendingContribs)*int(unsafe.Sizeof(absContrib{}))+
			cap(ex.stepEvents)*int(unsafe.Sizeof(absEvent{}))+
			cap(ex.stepArms)*int(unsafe.Sizeof(absArm{})))/8
	for _, f := range ex.freeFlows {
		words += f.bufWords()
	}
	for i := range ex.groupBuf {
		g := &ex.groupBuf[i]
		words += g.local.pageWords()
		for _, q := range [2][]*absFlow{g.resident, g.pending} {
			for _, f := range q {
				words += f.bufWords()
			}
		}
	}
	if words > maxPooledWords {
		return
	}
	ex.c, ex.prog = nil, nil
	execPool.Put(ex)
}

// run drives the abstract machine to completion (or a budget/unknown stop)
// and fills the report.
func (ex *costExec) run(rep *CostReport) {
	defer func() {
		if r := recover(); r != nil {
			cs, ok := r.(costStop)
			if !ok {
				panic(r)
			}
			ex.fill(rep, false, cs.reason, "")
		}
	}()
	if !ex.preload(rep) {
		return
	}
	entry := ex.prog.Entry()
	for _, bf := range ex.pol.BootFlows(ex.machineShape()) {
		g := 0
		if bf.Group >= 0 && bf.Group < len(ex.groups) {
			g = bf.Group
		}
		ex.newFlow(entry, int64(bf.Thickness), ex.groups[g])
	}
	for ex.live > 0 {
		if ex.st.steps >= ex.p.MaxSteps {
			ex.fill(rep, false, fmt.Sprintf("analysis step budget exhausted (%d abstract steps)", ex.p.MaxSteps), "")
			return
		}
		if note := ex.runStep(); note != "" {
			ex.fill(rep, true, "", "predicted runtime error: "+note)
			return
		}
	}
	ex.fill(rep, true, "", "")
}

func (ex *costExec) machineShape() variant.MachineShape {
	return variant.MachineShape{
		Groups: ex.p.Groups, ProcsPerGroup: ex.p.ProcsPerGroup,
		VectorWidth: ex.p.VectorWidth,
	}
}

// preload mirrors LoadProgram: shared data segments, plus every group's
// local memory receiving each local segment.
func (ex *costExec) preload(rep *CostReport) bool {
	for _, seg := range ex.prog.Data {
		if seg.Addr < 0 || seg.Addr+int64(len(seg.Words)) > int64(ex.p.SharedWords) {
			rep.Reason = fmt.Sprintf("data segment [%d,%d) outside shared memory (%d words)",
				seg.Addr, seg.Addr+int64(len(seg.Words)), ex.p.SharedWords)
			return false
		}
		for i, w := range seg.Words {
			ex.shared.poke(seg.Addr+int64(i), known(w))
		}
	}
	for _, g := range ex.groups {
		for _, seg := range ex.c.LocalData {
			if seg.Addr < 0 || seg.Addr+int64(len(seg.Words)) > int64(ex.p.LocalWords) {
				rep.Reason = fmt.Sprintf("local data segment [%d,%d) outside local memory (%d words)",
					seg.Addr, seg.Addr+int64(len(seg.Words)), ex.p.LocalWords)
				return false
			}
			for i, w := range seg.Words {
				g.local.poke(seg.Addr+int64(i), known(w))
			}
		}
	}
	return true
}

func (ex *costExec) newFlow(pc int, thickness int64, g *absGroup) *absFlow {
	var f *absFlow
	if n := len(ex.freeFlows); n > 0 {
		f = ex.freeFlows[n-1]
		ex.freeFlows = ex.freeFlows[:n-1]
		f.recycle()
	} else {
		f = new(absFlow)
	}
	f.id, f.pc, f.state, f.mode = ex.nextID, pc, fsReady, amPRAM
	f.thickness, f.totalThickness, f.bunch = thickness, thickness, 1
	f.resumePC, f.home = -1, g.index
	for i := range f.scalars {
		f.scalars[i] = known(0)
	}
	ex.nextID++
	ex.live++
	ex.ready++
	if len(g.resident) < ex.p.ProcsPerGroup {
		g.resident = append(g.resident, f)
	} else {
		g.pending = append(g.pending, f)
	}
	ex.st.flowsCreated++
	if live := int64(ex.live); live > ex.st.maxLiveFlows {
		ex.st.maxLiveFlows = live
	}
	if thickness > ex.maxThick {
		ex.maxThick = thickness
	}
	return f
}

// setState moves f to state s, keeping the live and ready counts. Done is
// final.
func (ex *costExec) setState(f *absFlow, s flowState) {
	if f.state == fsReady {
		ex.ready--
	}
	if s == fsReady {
		ex.ready++
	}
	if s == fsDone && f.state != fsDone {
		ex.live--
	}
	f.state = s
}

// releaseBarriers readies every Blocked flow. Every live flow sits in
// some group's storage buffer, resident or pending.
func (ex *costExec) releaseBarriers() {
	for _, g := range ex.groups {
		for _, q := range [2][]*absFlow{g.resident, g.pending} {
			for _, f := range q {
				if f.state == fsBlocked {
					ex.setState(f, fsReady)
				}
			}
		}
	}
}

// runStep mirrors Machine.runStep: generate → merge/fold → commit → retire
// split/join events → compact storage buffers → barrier release → finish.
// A non-empty return is a predicted runtime error: the machine's merge
// aborts before commit, so earlier groups' counters are folded and the
// step never finishes — exactly what the totals now hold.
func (ex *costExec) runStep() string {
	ex.pendingWrites = ex.pendingWrites[:0]
	ex.pendingContribs = ex.pendingContribs[:0]
	ex.stepEvents = ex.stepEvents[:0]
	ex.stepArms = ex.stepArms[:0]
	for _, g := range ex.groups {
		g.beginStep()
		ex.runGroup(g)
	}
	var stepCycles int64
	for _, g := range ex.groups {
		if g.err != "" {
			return g.err
		}
		ex.fold(g, &stepCycles)
	}
	ex.commit()
	b0 := ex.st.branchCycles
	ex.retireEvents()
	stepCycles += ex.st.branchCycles - b0
	s0 := ex.st.switchCycles
	ex.compact()
	stepCycles += ex.st.switchCycles - s0
	if ex.ready == 0 {
		ex.releaseBarriers()
	}
	if stepCycles == 0 {
		stepCycles = 1
	}
	ex.st.cycles += stepCycles
	ex.st.steps++
	if ex.live > 0 && ex.ready == 0 {
		return "deadlock: no flow is runnable"
	}
	return ""
}

func (ex *costExec) runGroup(g *absGroup) {
	n := len(g.resident)
	for k := 0; k < n; k++ {
		if g.err != "" {
			break
		}
		f := g.resident[k]
		if f.state != fsReady {
			continue
		}
		ex.runFlow(g, f)
	}
}

func (ex *costExec) runFlow(g *absGroup, f *absFlow) {
	if f.state != fsReady || g.err != "" {
		return
	}
	if f.mode == amNUMA {
		ex.execBunch(g, f)
		return
	}
	if f.pc < 0 || f.pc >= ex.prog.Len() {
		ex.halt(g, f)
		return
	}
	g.cnt.fetches++
	ex.chargeLaneWork(1)
	ex.execWhole(g, f, ex.prog.At(f.pc))
}

func (ex *costExec) halt(g *absGroup, f *absFlow) {
	if f.state == fsDone {
		return
	}
	ex.setState(f, fsDone)
	if f.parent != nil {
		ex.stepEvents = append(ex.stepEvents, absEvent{kind: aevChildDone, flow: f})
	}
}

func (ex *costExec) chargeLaneWork(n int64) {
	ex.laneLeft -= n
	if ex.laneLeft < 0 {
		panic(costStop{"analysis lane-work budget exhausted"})
	}
}

func (ex *costExec) execWhole(g *absGroup, f *absFlow, in isa.Instr) {
	if in.Op.Info().Control {
		g.cnt.scalarOps++
		ex.applyControl(g, f, in)
		return
	}
	w := 1
	if in.Thick() {
		w = f.lanes()
	}
	ex.chargeLaneWork(int64(w))
	if !in.Sliceable() {
		ex.execAtomic(g, f, in)
		if w <= 1 {
			g.cnt.scalarOps++
		} else {
			g.cnt.ops += int64(w)
		}
		f.pc++
		return
	}
	ex.execLanes(g, f, in, w, 0)
	g.cnt.ops += int64(w)
	f.pc++
}

// execBunch mirrors execNUMABunch for lockstep plans: up to Bunch
// consecutive instructions with store-to-load forwarding, mode changes and
// combining operations ending the bunch.
func (ex *costExec) execBunch(g *absGroup, f *absFlow) {
	if g.fwd == nil {
		g.fwd = make(map[int64]aval)
	}
	clear(g.fwd)
	g.fwdOn = true
	defer func() { g.fwdOn = false }()
	for k := int64(0); k < f.bunch; k++ {
		if f.state != fsReady || g.err != "" {
			break
		}
		if f.pc < 0 || f.pc >= ex.prog.Len() {
			ex.halt(g, f)
			break
		}
		g.cnt.fetches++
		ex.chargeLaneWork(1)
		in := ex.prog.At(f.pc)
		if in.Op.Info().Control {
			g.cnt.scalarOps++
			ex.applyControl(g, f, in)
			switch in.Op {
			case isa.SETTHICK, isa.NUMA, isa.PRAM, isa.SPLIT, isa.BAR, isa.JOIN, isa.HALT:
				return
			}
			continue
		}
		if !in.Sliceable() {
			ex.execAtomic(g, f, in)
			g.cnt.scalarOps++
		} else {
			ex.execLanes(g, f, in, 1, int(k))
			g.cnt.ops++
		}
		f.pc++
		if in.Op.IsMultiop() || in.Op.IsMultiprefix() {
			return
		}
	}
}

// execAtomic mirrors the engine's non-sliceable path: reductions fold the
// Lanes()-truncated source vector; PRINT/PRINTS/NOP cost nothing beyond
// the caller's op accounting; everything else is single-lane semantics.
func (ex *costExec) execAtomic(g *absGroup, f *absFlow, in isa.Instr) {
	ex.ar.reset()
	switch {
	case in.Op.IsReduction():
		v := ex.read(f, in.Ra, f.lanes())
		f.scalars[in.Rd.Index()] = reduceVec(in.Op.CombineKind(), v, ex.ar.cap)
	case in.Op == isa.PRINT, in.Op == isa.PRINTS, in.Op == isa.NOP:
		// Program output does not feed back into cost.
	default:
		ex.execLanes(g, f, in, 1, 0)
	}
}

func (ex *costExec) execLanes(g *absGroup, f *absFlow, in isa.Instr, w, seq int) {
	if w == 0 {
		return
	}
	ex.ar.reset()
	cap := ex.ar.cap
	op := in.Op
	switch {
	case op == isa.LDI:
		f.writeDest(in.Rd, uniVec(w, in.Imm), cap)
	case op == isa.MOV, op == isa.NEG, op == isa.NOT:
		f.writeDest(in.Rd, ex.ar.unary(op, ex.read(f, in.Ra, w)), cap)
	case op.IsBinaryALU():
		a := ex.read(f, in.Ra, w)
		b := uniVec(w, in.Imm)
		if !in.HasImm {
			b = ex.read(f, in.Rb, w)
		}
		f.writeDest(in.Rd, ex.ar.alu(op, a, b), cap)
	case op == isa.SEL:
		f.writeDest(in.Rd, ex.ar.sel(ex.read(f, in.Ra, w), ex.read(f, in.Rb, w), ex.read(f, in.Rc, w)), cap)
	case op == isa.TID:
		if f.mode == amNUMA {
			f.writeDest(in.Rd, uniVec(w, 0), cap)
		} else {
			f.writeDest(in.Rd, affVec(w, f.tidOffset, 1), cap)
		}
	case op == isa.FID:
		f.writeDest(in.Rd, uniVec(w, int64(f.id)), cap)
	case op == isa.THICK:
		f.writeDest(in.Rd, uniVec(w, f.totalThickness), cap)
	case op == isa.GID:
		f.writeDest(in.Rd, uniVec(w, int64(g.index)), cap)
	case op == isa.PID:
		f.writeDest(in.Rd, uniVec(w, int64(f.home)), cap)
	case op == isa.NPROC:
		f.writeDest(in.Rd, uniVec(w, int64(ex.p.Groups*ex.p.ProcsPerGroup)), cap)
	case op == isa.NGRP:
		f.writeDest(in.Rd, uniVec(w, int64(ex.p.Groups)), cap)
	case op == isa.LD:
		f.writeDest(in.Rd, ex.doLoad(g, f, ex.addrVec(f, in, w), w), cap)
	case op == isa.ST:
		ex.doStore(g, f, ex.addrVec(f, in, w), ex.read(f, in.Rb, w), w, seq)
	case op == isa.LDL:
		f.writeDest(in.Rd, ex.doLocalLoad(g, ex.addrVec(f, in, w), w), cap)
	case op == isa.STL:
		ex.doLocalStore(g, ex.addrVec(f, in, w), ex.read(f, in.Rb, w), w)
	case op.IsMultiop(), op.IsMultiprefix():
		ex.doCombine(g, f, in, w, seq)
	default:
		panic(costStop{fmt.Sprintf("opcode %s has no abstract lane semantics", op)})
	}
}

// addrVec is effAddr over all w lanes: Imm alone, or base register plus Imm.
func (ex *costExec) addrVec(f *absFlow, in isa.Instr, w int) avec {
	if in.Ra == isa.RegNone {
		return uniVec(w, in.Imm)
	}
	return ex.ar.alu(isa.ADD, ex.read(f, in.Ra, w), uniVec(w, in.Imm))
}

// moduleOf mirrors mem.HomeModuleOf (identity remap: no fault plans here).
func (ex *costExec) moduleOf(addr int64) int {
	m := int64(ex.nmods)
	if m&(m-1) == 0 {
		return int(addr & (m - 1))
	}
	return int(((addr % m) + m) % m)
}

// noteSharedN charges n same-address shared references: NUMA mode stalls
// inline per reference, PRAM mode feeds the latency-hiding overhead term.
func (ex *costExec) noteSharedN(g *absGroup, addr, n int64, numa bool) {
	mod := ex.moduleOf(addr)
	ex.moduleRefs[mod] += n
	d := ex.dist[g.index*ex.nmods+mod]
	if numa {
		g.cnt.stall += n * int64(ex.p.MemLatencyBase+d)
	} else {
		g.cnt.anyShared = true
		if d > g.cnt.maxDist {
			g.cnt.maxDist = d
		}
	}
}

// noteSharedBulk charges the w references of a non-wrapping affine address
// sequence by walking the module residue cycle once (period ≤ nmods).
func (ex *costExec) noteSharedBulk(g *absGroup, base, stride int64, w int, numa bool) {
	m := ex.nmods
	r := ex.moduleOf(base)
	s := ex.moduleOf(stride)
	period := 1
	for cur := (r + s) % m; cur != r; cur = (cur + s) % m {
		period++
	}
	full, rem := int64(w/period), w%period
	cur := r
	for k := 0; k < period; k++ {
		cnt := full
		if k < rem {
			cnt++
		}
		if cnt > 0 {
			d := ex.dist[g.index*ex.nmods+cur]
			ex.moduleRefs[cur] += cnt
			if numa {
				g.cnt.stall += cnt * int64(ex.p.MemLatencyBase+d)
			} else {
				g.cnt.anyShared = true
				if d > g.cnt.maxDist {
					g.cnt.maxDist = d
				}
			}
		}
		cur = (cur + s) % m
	}
}

func (ex *costExec) notePage(addr int64) {
	if addr < 0 || addr >= int64(ex.p.SharedWords) {
		return
	}
	ex.pages.add(addr >> mem.PageShift)
}

// notePageBulk records the page span of a non-wrapping affine sequence.
// Strides wider than a page (or absurd spans) give up on footprint
// exactness rather than enumerating.
func (ex *costExec) notePageBulk(base, stride int64, w int) {
	span, ok := mulNoWrap(stride, int64(w-1))
	if !ok {
		ex.footLost = true
		return
	}
	last, ok := addNoWrap(base, span)
	if !ok {
		ex.footLost = true
		return
	}
	lo, hi := base, last
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi < 0 || lo >= int64(ex.p.SharedWords) {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if max := int64(ex.p.SharedWords) - 1; hi > max {
		hi = max
	}
	abss := stride
	if abss < 0 {
		abss = -abss
	}
	if abss <= 0 || abss > costPageWords {
		ex.footLost = true
		return
	}
	loPg, hiPg := lo>>mem.PageShift, hi>>mem.PageShift
	if hiPg-loPg+1 > 1<<16 {
		ex.footLost = true
		return
	}
	for pg := loPg; pg <= hiPg; pg++ {
		ex.pages.add(pg)
	}
}

// affNoWrap verifies the lane addresses base + i*stride stay inside the
// 64-bit space for i in [0, w).
func affNoWrap(base, stride int64, w int) bool {
	span, ok := mulNoWrap(stride, int64(w-1))
	if !ok {
		return false
	}
	_, ok = addNoWrap(base, span)
	return ok
}

func avalVec(w int, v aval) avec {
	if v.ok {
		return uniVec(w, v.v)
	}
	return unkVec(w)
}

// forwarded is the value a NUMA bunch stored at addr earlier in the same
// bunch, if any.
func (g *absGroup) forwarded(addr int64) (aval, bool) {
	if !g.fwdOn {
		return aval{}, false
	}
	v, ok := g.fwd[addr]
	return v, ok
}

func (ex *costExec) doLoad(g *absGroup, f *absFlow, av avec, w int) avec {
	numa := f.mode == amNUMA
	switch av.kind {
	case cvUni:
		addr := av.base
		g.cnt.sharedReads += int64(w)
		ex.noteSharedN(g, addr, int64(w), numa)
		ex.notePage(addr)
		if fv, ok := g.forwarded(addr); ok {
			return avalVec(w, fv)
		}
		return avalVec(w, ex.shared.peek(addr))
	case cvAff, cvConc:
		if w <= ex.ar.cap {
			vals := ex.ar.alloc(w)
			allKnown := true
			for i := range vals {
				a := av.at(i)
				g.cnt.sharedReads++
				ex.noteSharedN(g, a, 1, numa)
				ex.notePage(a)
				pv := ex.shared.peek(a)
				if fv, ok := g.forwarded(a); ok {
					pv = fv
				}
				vals[i] = pv.v
				allKnown = allKnown && pv.ok
			}
			if allKnown {
				return concVec(vals)
			}
			return unkVec(w)
		}
		if av.kind == cvAff {
			if !affNoWrap(av.base, av.stride, w) {
				panic(costStop{"shared address sequence wraps the 64-bit space"})
			}
			g.cnt.sharedReads += int64(w)
			ex.noteSharedBulk(g, av.base, av.stride, w, numa)
			ex.notePageBulk(av.base, av.stride, w)
			return unkVec(w)
		}
	}
	panic(costStop{fmt.Sprintf("unresolved shared-memory load address (pc %d)", f.pc)})
}

func (ex *costExec) doStore(g *absGroup, f *absFlow, av, bv avec, w, seq int) {
	numa := f.mode == amNUMA
	inRange := func(a int64) bool { return a >= 0 && a < int64(ex.p.SharedWords) }
	switch av.kind {
	case cvUni:
		addr := av.base
		g.cnt.sharedWrites += int64(w)
		ex.noteSharedN(g, addr, int64(w), numa)
		ex.notePage(addr)
		if inRange(addr) {
			ex.pendingWrites = append(ex.pendingWrites, absWrite{
				addr: addr, val: bv.lane(0), flow: f.id, thread: 0, seq: seq, count: int64(w),
			})
		}
		if g.fwdOn {
			g.fwd[addr] = bv.lane(w - 1)
		}
		return
	case cvAff, cvConc:
		if w <= ex.ar.cap {
			for i := 0; i < w; i++ {
				a := av.at(i)
				g.cnt.sharedWrites++
				ex.noteSharedN(g, a, 1, numa)
				ex.notePage(a)
				if inRange(a) {
					ex.pendingWrites = append(ex.pendingWrites, absWrite{
						addr: a, val: bv.lane(i), flow: f.id, thread: i, seq: seq, count: 1,
					})
				}
				if g.fwdOn {
					g.fwd[a] = bv.lane(i)
				}
			}
			return
		}
		if av.kind == cvAff {
			if !affNoWrap(av.base, av.stride, w) {
				panic(costStop{"shared address sequence wraps the 64-bit space"})
			}
			g.cnt.sharedWrites += int64(w)
			ex.noteSharedBulk(g, av.base, av.stride, w, numa)
			ex.notePageBulk(av.base, av.stride, w)
			// The written range is too wide to track word by word: values
			// degrade across the whole image, and same-step collisions with
			// these writes can no longer be counted.
			ex.shared.loseAll()
			ex.conflictsLost = true
			return
		}
	}
	panic(costStop{fmt.Sprintf("unresolved shared-memory store address (pc %d)", f.pc)})
}

func (ex *costExec) doLocalLoad(g *absGroup, av avec, w int) avec {
	g.cnt.localReads += int64(w)
	switch av.kind {
	case cvUni:
		return avalVec(w, g.local.peek(av.base))
	case cvAff, cvConc:
		if w <= ex.ar.cap {
			vals := ex.ar.alloc(w)
			for i := range vals {
				pv := g.local.peek(av.at(i))
				if !pv.ok {
					return unkVec(w)
				}
				vals[i] = pv.v
			}
			return concVec(vals)
		}
	}
	// Local reads carry no distance cost, so an untracked address only
	// degrades the value, never the accounting.
	return unkVec(w)
}

func (ex *costExec) doLocalStore(g *absGroup, av, bv avec, w int) {
	g.cnt.localWrites += int64(w)
	switch av.kind {
	case cvUni:
		// Lane order applies immediately: the last lane's value sticks.
		g.local.poke(av.base, bv.lane(w-1))
		return
	case cvAff, cvConc:
		if w <= ex.ar.cap {
			for i := 0; i < w; i++ {
				g.local.poke(av.at(i), bv.lane(i))
			}
			return
		}
	}
	g.local.loseAll()
}

func (ex *costExec) doCombine(g *absGroup, f *absFlow, in isa.Instr, w, seq int) {
	if w > ex.ar.cap {
		panic(costStop{"combining traffic exceeds the analysis lane budget"})
	}
	av := ex.addrVec(f, in, w)
	if av.kind == cvUnk {
		panic(costStop{fmt.Sprintf("unresolved combining address (pc %d)", f.pc)})
	}
	numa := f.mode == amNUMA
	bv := ex.read(f, in.Rb, w)
	kind := in.Op.CombineKind()
	want := in.Op.IsMultiprefix()
	for i := 0; i < w; i++ {
		a := av.at(i)
		g.cnt.multiopRefs++
		ex.noteSharedN(g, a, 1, numa)
		ex.notePage(a)
		c := absContrib{kind: kind, addr: a, val: bv.lane(i), flow: f.id, thread: i, seq: seq}
		if want {
			c.wantPrefix, c.rd, c.rflow = true, in.Rd, f
		}
		ex.pendingContribs = append(ex.pendingContribs, c)
	}
}

func (ex *costExec) applyControl(g *absGroup, f *absFlow, in isa.Instr) {
	switch in.Op {
	case isa.JMP:
		f.pc = in.Target
	case isa.BEQZ, isa.BNEZ:
		c := f.scalar(in.Ra)
		if !c.ok {
			panic(costStop{fmt.Sprintf("unresolved branch condition (pc %d)", f.pc)})
		}
		if (c.v == 0) == (in.Op == isa.BEQZ) {
			f.pc = in.Target
		} else {
			f.pc++
		}
	case isa.CALL:
		f.callStack = append(f.callStack, f.pc+1)
		f.pc = in.Target
	case isa.RET:
		if n := len(f.callStack); n > 0 {
			f.pc = f.callStack[n-1]
			f.callStack = f.callStack[:n-1]
		} else {
			ex.halt(g, f)
		}
	case isa.SETTHICK:
		if !ex.props.VariableThickness {
			g.fail(fmt.Sprintf("SETTHICK: variant %s has fixed thickness", ex.pol.Kind()))
			return
		}
		t := known(in.Imm)
		if !in.HasImm {
			t = f.scalar(in.Ra)
		}
		if !t.ok {
			panic(costStop{fmt.Sprintf("unresolved SETTHICK thickness (pc %d)", f.pc)})
		}
		if t.v < 0 {
			g.fail(fmt.Sprintf("SETTHICK: negative thickness %d", t.v))
			return
		}
		if ex.p.MaxThickness > 0 && t.v > int64(ex.p.MaxThickness) {
			g.fail(fmt.Sprintf("thickness %d exceeds limit %d", t.v, ex.p.MaxThickness))
			return
		}
		f.setThickness(t.v)
		if t.v > ex.maxThick {
			ex.maxThick = t.v
		}
		f.pc++
	case isa.NUMA:
		if !ex.props.NUMAOperation {
			g.fail(fmt.Sprintf("NUMA: variant %s has no NUMA mode", ex.pol.Kind()))
			return
		}
		b := known(in.Imm)
		if !in.HasImm {
			b = f.scalar(in.Ra)
		}
		if !b.ok {
			panic(costStop{fmt.Sprintf("unresolved NUMA bunch (pc %d)", f.pc)})
		}
		if b.v < 1 {
			g.fail(fmt.Sprintf("NUMA: bunch %d must be >= 1", b.v))
			return
		}
		f.mode = amNUMA
		f.bunch = b.v
		f.pc++
	case isa.PRAM:
		if !ex.props.NUMAOperation {
			g.fail(fmt.Sprintf("PRAM: variant %s has no NUMA mode", ex.pol.Kind()))
			return
		}
		f.mode = amPRAM
		f.thickness, f.totalThickness = 1, 1
		f.pc++
	case isa.SPLIT:
		if !ex.props.ControlParallel {
			g.fail(fmt.Sprintf("SPLIT: variant %s has no control parallelism", ex.pol.Kind()))
			return
		}
		first := len(ex.stepArms)
		for _, a := range in.Arms {
			t := known(a.ThickImm)
			if a.Thick != isa.RegNone {
				t = f.scalar(a.Thick)
			}
			if !t.ok {
				panic(costStop{fmt.Sprintf("unresolved split-arm thickness (pc %d)", f.pc)})
			}
			if t.v < 0 {
				g.fail(fmt.Sprintf("SPLIT: negative arm thickness %d", t.v))
				return
			}
			if ex.p.MaxThickness > 0 && t.v > int64(ex.p.MaxThickness) {
				g.fail(fmt.Sprintf("thickness %d exceeds limit %d", t.v, ex.p.MaxThickness))
				return
			}
			ex.stepArms = append(ex.stepArms, absArm{thick: t.v, pc: a.Target})
		}
		arms := ex.stepArms[first:len(ex.stepArms):len(ex.stepArms)]
		ex.setState(f, fsWaiting)
		f.resumePC = f.pc + 1
		f.liveChildren = len(arms)
		ex.stepEvents = append(ex.stepEvents, absEvent{kind: aevSplit, flow: f, arms: arms})
	case isa.BAR:
		ex.setState(f, fsBlocked)
		f.pc++
		g.cnt.barriers++
	case isa.JOIN, isa.HALT:
		ex.halt(g, f)
	}
}

// fold mirrors foldGroup: the group cycle under the extended cost model is
// ops + max(pipeline fill, hidden memory latency) + NUMA stalls.
func (ex *costExec) fold(g *absGroup, stepCycles *int64) {
	c := &g.cnt
	opsCycles := c.ops + c.scalarOps
	var overhead int64
	if c.fetches > 0 {
		overhead = int64(ex.p.PipelineDepth)
		if c.anyShared {
			if lat := int64(ex.p.MemLatencyBase + c.maxDist); lat > overhead {
				overhead = lat
			}
		}
	}
	if gc := opsCycles + overhead + c.stall; gc > *stepCycles {
		*stepCycles = gc
	}
	t := &ex.st
	t.ops += c.ops
	t.scalarOps += c.scalarOps
	t.fetches += c.fetches
	t.sharedReads += c.sharedReads
	t.sharedWrites += c.sharedWrites
	t.localReads += c.localReads
	t.localWrites += c.localWrites
	t.multiopRefs += c.multiopRefs
	t.overhead += overhead
	t.stall += c.stall
	t.barriers += c.barriers
}

func applyAval(kind isa.Op, a, b aval) aval {
	if !a.ok || !b.ok {
		return unknown
	}
	return known(multiop.Apply(kind, a.v, b.v))
}

// combineOrder is the fixed order in which the engine resolves combining
// operations, kind by kind.
var combineOrder = [...]isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN}

func combineRank(kind isa.Op) int {
	for r, k := range combineOrder {
		if k == kind {
			return r
		}
	}
	return len(combineOrder)
}

// commit mirrors the end-of-step memory resolution: buffered writes
// arbitrate lowest-key-first per address, then combining contributions
// resolve kind by kind in the engine's fixed order, routing prefix values
// back into participant registers.
func (ex *costExec) commit() {
	ws := ex.pendingWrites
	// Thick stores append in ascending order more often than not.
	if !slices.IsSortedFunc(ws, cmpWrite) {
		slices.SortFunc(ws, cmpWrite)
	}
	for i := 0; i < len(ws); {
		j := i + 1
		weight := ws[i].count
		for j < len(ws) && ws[j].addr == ws[i].addr {
			weight += ws[j].count
			j++
		}
		ex.shared.poke(ws[i].addr, ws[i].val)
		ex.conflicts += weight - 1
		i = j
	}
	// One sort with the kind's resolution rank as the leading key visits
	// the contributions in exactly the engine's kind-by-kind order.
	cs := ex.pendingContribs
	slices.SortFunc(cs, func(a, b absContrib) int {
		switch {
		case a.kind != b.kind:
			return combineRank(a.kind) - combineRank(b.kind)
		case a.addr != b.addr:
			return cmp64(a.addr, b.addr)
		case a.flow != b.flow:
			return a.flow - b.flow
		case a.thread != b.thread:
			return a.thread - b.thread
		default:
			return a.seq - b.seq
		}
	})
	for i := 0; i < len(cs); {
		kind, addr := cs[i].kind, cs[i].addr
		acc := ex.shared.peek(addr)
		j := i
		for ; j < len(cs) && cs[j].kind == kind && cs[j].addr == addr; j++ {
			c := &cs[j]
			if c.wantPrefix {
				c.rflow.setLane(c.rd.Index(), c.thread, c.rflow.lanes(), ex.ar.cap, acc)
			}
			acc = applyAval(kind, acc, c.val)
		}
		ex.shared.poke(addr, acc)
		i = j
	}
}

func cmpWrite(a, b absWrite) int {
	switch {
	case a.addr != b.addr:
		return cmp64(a.addr, b.addr)
	case a.flow != b.flow:
		return a.flow - b.flow
	case a.thread != b.thread:
		return a.thread - b.thread
	default:
		return a.seq - b.seq
	}
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// retireEvents mirrors the frontend: join bookkeeping cascades parent
// completion; splits place children least-loaded-first and charge the
// Table 1 flow-branch rate per child.
func (ex *costExec) retireEvents() {
	for i := 0; i < len(ex.stepEvents); i++ {
		ev := ex.stepEvents[i]
		switch ev.kind {
		case aevChildDone:
			parent := ev.flow.parent
			parent.liveChildren--
			ex.st.joins++
			if parent.liveChildren == 0 && parent.state == fsWaiting {
				if parent.resumePC < 0 {
					ex.setState(parent, fsDone)
					if parent.parent != nil {
						ex.stepEvents = append(ex.stepEvents, absEvent{kind: aevChildDone, flow: parent})
					}
				} else {
					ex.setState(parent, fsReady)
					parent.pc = parent.resumePC
				}
			}
		case aevSplit:
			ex.st.splits++
			for _, arm := range ev.arms {
				g := ex.leastLoaded()
				child := ex.newFlow(arm.pc, arm.thick, g)
				child.parent = ev.flow
				child.scalars = ev.flow.scalars
				ex.st.branchCycles += ex.pol.FlowBranchCycles(isa.NumSRegs)
			}
		}
	}
}

func (ex *costExec) leastLoaded() *absGroup {
	best := ex.groups[0]
	bestLoad := best.load()
	for _, g := range ex.groups[1:] {
		if l := g.load(); l < bestLoad {
			best, bestLoad = g, l
		}
	}
	return best
}

// compact mirrors the frontend's compact: drop Done residents, promote pending flows
// into free slots, then displace Blocked/Waiting residents while runnable
// flows wait — each movement charging the variant's task-switch rate.
func (ex *costExec) compact() {
	for _, g := range ex.groups {
		kept := g.resident[:0]
		for _, f := range g.resident {
			if f.state != fsDone {
				kept = append(kept, f)
			} else {
				// Nothing reaches a dropped Done flow any more: its
				// events and prefix write-backs resolved this step, and
				// its children, all Done, never follow their parent link
				// again.
				ex.freeFlows = append(ex.freeFlows, f)
			}
		}
		g.resident = kept
		for len(g.resident) < ex.p.ProcsPerGroup && len(g.pending) > 0 {
			g.resident = append(g.resident, g.pending[0])
			g.pending = g.pending[1:]
			ex.st.switchCycles += ex.pol.TaskSwitchCycles(ex.p.ProcsPerGroup)
		}
		for ex.pendingReady(g) {
			idx := -1
			for i, f := range g.resident {
				if f.state == fsBlocked || f.state == fsWaiting {
					idx = i
					break
				}
			}
			if idx < 0 {
				break
			}
			displaced := g.resident[idx]
			g.resident[idx] = g.pending[0]
			g.pending = append(g.pending[1:], displaced)
			ex.st.switchCycles += ex.pol.TaskSwitchCycles(ex.p.ProcsPerGroup)
		}
	}
}

func (ex *costExec) pendingReady(g *absGroup) bool {
	for _, f := range g.pending {
		if f.state == fsReady {
			return true
		}
	}
	return false
}

// fill converts the accumulated totals into a report. Resolved runs pin
// every bound; stopped runs report sound lower bounds only.
func (ex *costExec) fill(rep *CostReport, resolved bool, reason, note string) {
	rep.Resolved = resolved
	rep.Reason = reason
	rep.Note = note
	mk := exactBound
	if !resolved {
		mk = minOnly
	}
	t := &ex.st
	rep.Steps = mk(t.steps)
	rep.Cycles = mk(t.cycles)
	rep.Ops = mk(t.ops)
	rep.ScalarOps = mk(t.scalarOps)
	rep.InstrFetches = mk(t.fetches)
	rep.SharedReads = mk(t.sharedReads)
	rep.SharedWrites = mk(t.sharedWrites)
	rep.LocalReads = mk(t.localReads)
	rep.LocalWrites = mk(t.localWrites)
	rep.MultiopRefs = mk(t.multiopRefs)
	rep.OverheadCycles = mk(t.overhead)
	rep.StallCycles = mk(t.stall)
	rep.FlowBranchCycles = mk(t.branchCycles)
	rep.TaskSwitchCycles = mk(t.switchCycles)
	rep.Barriers = mk(t.barriers)
	rep.Splits = mk(t.splits)
	rep.Joins = mk(t.joins)
	rep.FlowsCreated = mk(t.flowsCreated)
	rep.MaxLiveFlows = mk(t.maxLiveFlows)
	rep.MaxThickness = mk(ex.maxThick)

	rep.WordsPerModule = ex.moduleRefs
	if resolved && !ex.conflictsLost {
		rep.WriteConflicts = exactBound(ex.conflicts)
	} else {
		rep.WriteConflicts = minOnly(ex.conflicts)
	}

	if resolved && !ex.footLost {
		rep.FootprintPages = exactBound(ex.pages.n)
	} else {
		rep.FootprintPages = minOnly(ex.pages.n)
	}
}
