package analysis

import (
	"fmt"
	"strings"

	"tcfpram/internal/codegen"
	"tcfpram/internal/topology"
	"tcfpram/internal/variant"
)

// This file is the public face of the static cost analyzer: predicted
// step/cycle/traffic bounds for a compiled tcf-e program under the extended
// PRAM-NUMA cost model, computed without building a machine. The heavy
// lifting is the abstract executor in costexec.go, which mirrors the step
// engine's cost equations (pipeline fill, latency hiding, NUMA stalls,
// Table 1 task-switch/flow-branch rates) over the compressed value domain
// of costval.go; the CFG + thickness dataflow that tcfvet already owns
// provides the static thickness ceiling that stands in whenever abstract
// execution cannot finish.

// Bound is a predicted [Min, Max] interval. Max == -1 means the analyzer
// could not bound the quantity from above; Min is always a sound lower
// bound. A resolved prediction has Min == Max.
type Bound struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

func exactBound(v int64) Bound { return Bound{Min: v, Max: v} }
func minOnly(v int64) Bound    { return Bound{Min: v, Max: -1} }

// Exact reports whether the bound pins one value.
func (b Bound) Exact() bool { return b.Max >= 0 && b.Min == b.Max }

func (b Bound) String() string {
	if b.Exact() {
		return fmt.Sprintf("%d", b.Min)
	}
	if b.Max < 0 {
		return fmt.Sprintf(">=%d", b.Min)
	}
	return fmt.Sprintf("[%d,%d]", b.Min, b.Max)
}

// CostParams describes the machine the prediction is for (mirroring the
// behavior-relevant machine.Config fields) plus the analysis budgets.
type CostParams struct {
	Variant        variant.Kind
	Groups         int
	ProcsPerGroup  int
	SharedWords    int
	LocalWords     int
	PipelineDepth  int
	MemLatencyBase int
	VectorWidth    int
	MaxThickness   int
	// Topology is the group↔module distance metric; nil selects the
	// machine default (a bidirectional ring of Groups nodes).
	Topology topology.Topology

	// MaxSteps bounds abstract machine steps before the analyzer gives up
	// with lower bounds only (default 1<<20).
	MaxSteps int64
	// MaxConcreteLanes caps per-register lane materialization; thicker
	// vectors stay in the compressed domain or degrade to unknown
	// (default 1<<16).
	MaxConcreteLanes int
	// MaxTrackedWords caps the abstract shared/local memory image; past
	// it, written values are dropped (costs stay exact, values degrade)
	// (default 1<<20).
	MaxTrackedWords int
	// MaxLaneWork caps total abstract lane-operations (instruction width
	// summed over all executed instructions) before the analyzer gives up
	// with lower bounds only (default 1<<26).
	MaxLaneWork int64
}

// DefaultCostParams returns parameters matching machine.Default(kind).
func DefaultCostParams(kind variant.Kind) CostParams {
	groups := 4
	if kind == variant.FixedThickness {
		groups = 1
	}
	return CostParams{
		Variant:        kind,
		Groups:         groups,
		ProcsPerGroup:  4,
		SharedWords:    1 << 16,
		LocalWords:     1 << 12,
		PipelineDepth:  4,
		MemLatencyBase: 8,
	}
}

func (p *CostParams) normalize() error {
	if p.Groups <= 0 {
		p.Groups = 4
		if p.Variant == variant.FixedThickness {
			p.Groups = 1
		}
	}
	if p.ProcsPerGroup <= 0 {
		p.ProcsPerGroup = 4
	}
	if p.SharedWords <= 0 {
		p.SharedWords = 1 << 16
	}
	if p.LocalWords <= 0 {
		p.LocalWords = 1 << 12
	}
	if p.PipelineDepth <= 0 {
		p.PipelineDepth = 4
	}
	if p.MemLatencyBase < 0 {
		return fmt.Errorf("analysis: negative MemLatencyBase")
	}
	if p.VectorWidth <= 0 {
		p.VectorWidth = p.ProcsPerGroup
	}
	if p.Topology == nil {
		ring, err := topology.NewRing(p.Groups)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		p.Topology = ring
	}
	if p.Topology.Size() != p.Groups {
		return fmt.Errorf("analysis: topology size %d != groups %d", p.Topology.Size(), p.Groups)
	}
	if p.MaxSteps <= 0 {
		p.MaxSteps = 1 << 20
	}
	if p.MaxConcreteLanes <= 0 {
		p.MaxConcreteLanes = 1 << 16
	}
	if p.MaxTrackedWords <= 0 {
		p.MaxTrackedWords = 1 << 20
	}
	if p.MaxLaneWork <= 0 {
		p.MaxLaneWork = 1 << 26
	}
	return nil
}

// CostReport is the predicted cost of one program on one machine shape.
// When Resolved is true every bound is exact: the abstract executor ran the
// program to completion and the predictions equal the measured Stats of a
// real run on either backend under either scheduler. Otherwise Reason says
// what stopped the analysis and every bound is a sound lower bound.
type CostReport struct {
	Program  string `json:"program"`
	Variant  string `json:"variant"`
	Resolved bool   `json:"resolved"`
	Reason   string `json:"reason,omitempty"`
	// Note flags predicted abnormal terminations (deadlock, runtime
	// errors): the bounds are still exact up to the predicted stop.
	Note string `json:"note,omitempty"`

	Steps            Bound `json:"steps"`
	Cycles           Bound `json:"cycles"`
	Ops              Bound `json:"ops"`
	ScalarOps        Bound `json:"scalar_ops"`
	InstrFetches     Bound `json:"instr_fetches"`
	SharedReads      Bound `json:"shared_reads"`
	SharedWrites     Bound `json:"shared_writes"`
	LocalReads       Bound `json:"local_reads"`
	LocalWrites      Bound `json:"local_writes"`
	MultiopRefs      Bound `json:"multiop_refs"`
	OverheadCycles   Bound `json:"overhead_cycles"`
	StallCycles      Bound `json:"stall_cycles"`
	FlowBranchCycles Bound `json:"flow_branch_cycles"`
	TaskSwitchCycles Bound `json:"task_switch_cycles"`
	Barriers         Bound `json:"barriers"`
	Splits           Bound `json:"splits"`
	Joins            Bound `json:"joins"`
	FlowsCreated     Bound `json:"flows_created"`
	MaxLiveFlows     Bound `json:"max_live_flows"`
	MaxThickness     Bound `json:"max_thickness"`

	// Shared-memory footprint at the memory system's page granularity
	// (1024 words), plus per-module reference pressure and the same-step
	// write-collision estimate.
	FootprintPages Bound   `json:"footprint_pages"`
	WordsPerModule []int64 `json:"words_per_module,omitempty"`
	WriteConflicts Bound   `json:"write_conflicts"`
}

// Cost predicts the execution cost of a compiled program under params.
func Cost(c *codegen.Compiled, params CostParams) *CostReport {
	p := params
	rep := &CostReport{Variant: p.Variant.String()}
	if c != nil && c.Program != nil {
		rep.Program = c.Program.Name
	}
	if err := p.normalize(); err != nil {
		rep.Reason = err.Error()
		return rep
	}
	if c == nil || c.Program == nil {
		rep.Reason = "no compiled program"
		return rep
	}

	ceil, ceilKnown := staticThickCeiling(c, p.Variant)

	pol, err := variant.PolicyFor(p.Variant)
	if err != nil {
		rep.Reason = err.Error()
		return rep
	}
	shape := pol.Shape(variant.MachineShape{
		Groups: p.Groups, ProcsPerGroup: p.ProcsPerGroup,
		VectorWidth: p.VectorWidth,
	})
	if !shape.Lockstep || shape.Window != 1 || shape.Budget != 0 || shape.Slice || shape.PerThreadFetch {
		// The Balanced and XMT step shapes slice instructions across steps
		// or fetch per thread; the abstract executor models the lockstep
		// single-instruction shapes only. Fall back to the static pass.
		rep.Reason = fmt.Sprintf("variant %s: step shape not supported by the abstract executor (static bounds only)", p.Variant)
		rep.Steps = minOnly(1)
		rep.Cycles = minOnly(1)
		rep.InstrFetches = minOnly(1)
		if ceilKnown {
			rep.MaxThickness = Bound{Min: 1, Max: ceil}
		} else {
			rep.MaxThickness = minOnly(1)
		}
		return rep
	}

	ex := newCostExec(c, p, pol, shape)
	ex.run(rep)

	if !rep.Resolved && ceilKnown && rep.MaxThickness.Max < 0 {
		// The dataflow ceiling still bounds thickness even when abstract
		// execution could not finish.
		rep.MaxThickness.Max = ceil
	}
	return rep
}

// CostSource compiles tcf-e source and predicts its cost.
func CostSource(name, src string, params CostParams) (*CostReport, error) {
	c, err := codegen.CompileSource(name, src)
	if err != nil {
		return nil, err
	}
	return Cost(c, params), nil
}

// staticThickCeiling computes the maximum thickness any flow can reach, by
// running the tcfvet CFG + thickness dataflow over every function reachable
// from main and joining every reachable block state and parallel-arm
// thickness. It reports ok=false when any reachable state is unknown (a
// thickness set from a non-constant expression).
func staticThickCeiling(c *codegen.Compiled, kind variant.Kind) (int64, bool) {
	info := c.Info
	if info == nil || info.Prog == nil {
		return 0, false
	}
	a := &analyzer{
		opts:      Options{Variant: kind},
		prog:      info.Prog,
		info:      info,
		callThick: map[string]thickState{},
	}
	a.buildGlobalConst()
	a.callThick["main"] = thickState{seen: true, t: thick{known: true, n: 1}}
	order, _ := a.callOrder()

	ceil, ok := int64(1), true
	note := func(t thick) {
		if !t.known {
			ok = false
			return
		}
		if t.n > ceil {
			ceil = t.n
		}
	}
	for _, name := range order {
		fi := info.Funcs[name]
		if fi == nil || fi.Decl == nil {
			continue
		}
		fa := &funcAnalysis{a: a, fn: fi.Decl, entry: a.callThick[name].t}
		fa.buildEnv()
		fa.g = buildCFG(fi.Decl)
		fa.thicknessDataflow()
		for _, bl := range fa.g.blocks {
			st, seen := fa.thickIn[bl]
			if !seen || !bl.reachable {
				continue
			}
			note(st.t)
			note(fa.blockOutThick(bl))
			// Join call-site thickness into callees, as checkBlocks does,
			// so the dataflow seeds functions in caller-first order.
			t := st.t
			for _, s := range bl.stmts {
				fa.propagateCalls(s, t)
				t = transferThick(fa, s, t)
			}
			for _, e := range bl.exprs {
				fa.propagateCalls(e, t)
			}
			if bl.arm != nil {
				note(fa.armThick(bl.arm))
			}
		}
	}
	return ceil, ok
}

// Render formats a report for terminal output.
func (r *CostReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: variant=%s", r.Program, r.Variant)
	if r.Resolved {
		b.WriteString(" resolved=exact")
	} else {
		fmt.Fprintf(&b, " resolved=false (%s)", r.Reason)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, " note=%q", r.Note)
	}
	b.WriteString("\n")
	row := func(name string, v Bound) {
		fmt.Fprintf(&b, "  %-18s %s\n", name, v)
	}
	row("steps", r.Steps)
	row("cycles", r.Cycles)
	row("ops", r.Ops)
	row("scalar-ops", r.ScalarOps)
	row("fetches", r.InstrFetches)
	row("shared-reads", r.SharedReads)
	row("shared-writes", r.SharedWrites)
	row("local-reads", r.LocalReads)
	row("local-writes", r.LocalWrites)
	row("multiop-refs", r.MultiopRefs)
	row("overhead-cycles", r.OverheadCycles)
	row("stall-cycles", r.StallCycles)
	row("branch-cycles", r.FlowBranchCycles)
	row("switch-cycles", r.TaskSwitchCycles)
	row("barriers", r.Barriers)
	row("splits", r.Splits)
	row("max-thickness", r.MaxThickness)
	row("max-live-flows", r.MaxLiveFlows)
	row("footprint-pages", r.FootprintPages)
	row("write-conflicts", r.WriteConflicts)
	if len(r.WordsPerModule) > 0 {
		fmt.Fprintf(&b, "  %-18s %v\n", "refs-per-module", r.WordsPerModule)
	}
	return b.String()
}
