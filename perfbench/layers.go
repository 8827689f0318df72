package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/lang"
	"tcfpram/internal/machine"
	"tcfpram/internal/sema"
)

// simCounts are the simulated statistics summed over a fixed job list; a
// change that only speeds up the simulator leaves every one identical.
type simCounts struct {
	steps, cycles, laneOps, sharedRefs, multiopRefs int64
	stage                                           [machine.NumStages]int64
}

func (s *simCounts) add(st *machine.Stats) {
	s.steps += st.Steps
	s.cycles += st.Cycles
	s.laneOps += st.Ops
	s.sharedRefs += st.SharedReads + st.SharedWrites
	s.multiopRefs += st.MultiopRefs
	for i := range st.Stages {
		s.stage[i] += st.Stages[i].Cycles
	}
}

// tracer calls the repository's layers one at a time for a job, with a
// span around every call, and keeps the counts measured at the same
// boundaries.
type tracer struct {
	rec       *recorder
	stepNS    []float64 // individually timed Step calls
	engineNS  map[string]float64
	engineOps map[string]int64
	sim       simCounts

	costCalls, costResolved, costRejected int
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), engineNS: map[string]float64{}, engineOps: map[string]int64{}}
}

// call runs f inside a span named name under parent.
func (t *tracer) call(name string, job, parent int, f func()) {
	id := t.rec.begin(name, job, parent)
	f()
	t.rec.end(id)
}

// frontEnd parses and type-checks a job's source.
func (t *tracer) frontEnd(j *Job, parent int) (*sema.Info, error) {
	var prog *lang.Program
	var err error
	t.call("lang.parse", j.ID, parent, func() { prog, err = lang.Parse(j.Src) })
	if err != nil {
		return nil, err
	}
	var info *sema.Info
	t.call("sema.check", j.ID, parent, func() { info, err = sema.Check(prog) })
	return info, err
}

func (t *tracer) compile(j *Job, info *sema.Info, parent int) (*codegen.Compiled, error) {
	var c *codegen.Compiled
	var err error
	t.call("codegen.compile", j.ID, parent, func() { c, err = codegen.CompileChecked(info) })
	if err != nil {
		return nil, err
	}
	c.Program.Name = j.Name
	return c, nil
}

// cost runs the admission-time cost analyzer and counts its verdict.
func (t *tracer) cost(j *Job, c *codegen.Compiled, p analysis.CostParams, parent int) *analysis.CostReport {
	var rep *analysis.CostReport
	t.call("analysis.cost", j.ID, parent, func() { rep = analysis.Cost(c, p) })
	t.costCalls++
	if rep.Resolved {
		t.costResolved++
	}
	return rep
}

// execute loads a compiled job onto m and steps it to completion, timing
// every Step call. The step loop is RunContext's without the context,
// quota and watchdog checks, which never change the statistics of a run
// that ends by itself.
func (t *tracer) execute(j *Job, m *machine.Machine, c *codegen.Compiled, parent int) (*machine.Stats, error) {
	var err error
	t.call("machine.load", j.ID, parent, func() { err = load(m, c, j.Inputs) })
	if err != nil {
		return nil, err
	}
	id := t.rec.begin("engine.run", j.ID, parent)
	start := time.Now()
	if err = m.Boot(); err == nil {
		for !m.Done() {
			s := time.Now()
			err = m.Step()
			t.stepNS = append(t.stepNS, float64(time.Since(s)))
			if err != nil {
				break
			}
		}
	}
	elapsed := time.Since(start)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	st := m.Stats()
	t.engineNS[j.Backend] += float64(elapsed)
	t.engineOps[j.Backend] += st.Ops
	t.sim.add(st)
	return st, nil
}

// load installs a compiled program, its local data and the job's inputs,
// as tcfpram.Machine.LoadSource followed by SetWords does.
func load(m *machine.Machine, c *codegen.Compiled, inputs []Segment) error {
	if err := m.LoadProgram(c.Program); err != nil {
		return err
	}
	for _, seg := range c.LocalData {
		for g := 0; g < m.Config().Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				return err
			}
		}
	}
	for _, in := range inputs {
		if err := m.Shared().Load(in.Addr, in.Words); err != nil {
			return err
		}
	}
	return nil
}

// checkPrediction holds a resolved cost prediction to the measured run:
// every predicted statistic must equal the measurement exactly.
func checkPrediction(rep *analysis.CostReport, st *machine.Stats) error {
	if rep == nil || !rep.Resolved || rep.Note != "" {
		return nil
	}
	rows := []struct {
		name      string
		predicted analysis.Bound
		measured  int64
	}{
		{"steps", rep.Steps, st.Steps},
		{"cycles", rep.Cycles, st.Cycles},
		{"ops", rep.Ops, st.Ops},
		{"scalar-ops", rep.ScalarOps, st.ScalarOps},
		{"instr-fetches", rep.InstrFetches, st.InstrFetches},
		{"shared-reads", rep.SharedReads, st.SharedReads},
		{"shared-writes", rep.SharedWrites, st.SharedWrites},
		{"local-reads", rep.LocalReads, st.LocalReads},
		{"local-writes", rep.LocalWrites, st.LocalWrites},
		{"multiop-refs", rep.MultiopRefs, st.MultiopRefs},
		{"overhead-cycles", rep.OverheadCycles, st.OverheadCycles},
		{"stall-cycles", rep.StallCycles, st.StallCycles},
		{"flow-branch-cycles", rep.FlowBranchCycles, st.FlowBranchCycles},
		{"task-switch-cycles", rep.TaskSwitchCycles, st.TaskSwitchCycles},
		{"barriers", rep.Barriers, st.Barriers},
		{"splits", rep.Splits, st.Splits},
		{"joins", rep.Joins, st.Joins},
		{"flows-created", rep.FlowsCreated, st.FlowsCreated},
		{"max-live-flows", rep.MaxLiveFlows, int64(st.MaxLiveFlows)},
	}
	for _, r := range rows {
		if !r.predicted.Exact() || r.predicted.Min != r.measured {
			return fmt.Errorf("resolved cost prediction %s = %s, measured %d", r.name, r.predicted, r.measured)
		}
	}
	return nil
}

// runResponse mirrors the fields of tcfserve's /run reply that the
// benchmark reads, and is what the replay encodes in the server's place.
type runResponse struct {
	Outcome      string           `json:"outcome"`
	Error        string           `json:"error,omitempty"`
	Steps        int64            `json:"steps,omitempty"`
	Cycles       int64            `json:"cycles,omitempty"`
	StageCycles  map[string]int64 `json:"stage_cycles,omitempty"`
	Outputs      []outputJSON     `json:"outputs,omitempty"`
	Memory       []peekResult     `json:"memory,omitempty"`
	CachedProg   bool             `json:"cached_program"`
	PooledMach   bool             `json:"pooled_machine"`
	WallClock    string           `json:"wall_clock,omitempty"`
	SharedReads  int64            `json:"shared_reads,omitempty"`
	SharedWrites int64            `json:"shared_writes,omitempty"`
}

type outputJSON struct {
	Flow   int     `json:"flow"`
	Step   int64   `json:"step"`
	Values []int64 `json:"values,omitempty"`
	Text   string  `json:"text,omitempty"`
}

type peekResult struct {
	Addr   int64   `json:"addr"`
	Values []int64 `json:"values"`
}

// answer is what a job's result is checked on: the memory segments it
// names and everything it printed.
type answer struct {
	mem     [][]int64
	printed []int64
}

func (a *answer) check(j *Job) error {
	if len(a.mem) != len(j.Check) {
		return fmt.Errorf("%d memory ranges returned, want %d", len(a.mem), len(j.Check))
	}
	for i, seg := range j.Check {
		if err := equalWords(a.mem[i], seg.Words); err != nil {
			return fmt.Errorf("memory at %d: %w", seg.Addr, err)
		}
	}
	if j.Print != nil {
		if err := equalWords(a.printed, j.Print); err != nil {
			return fmt.Errorf("printed values: %w", err)
		}
	}
	return nil
}

// answerOf reads a finished machine's answer.
func answerOf(j *Job, m *machine.Machine) answer {
	var a answer
	for _, seg := range j.Check {
		a.mem = append(a.mem, m.Shared().Snapshot(seg.Addr, len(seg.Words)))
	}
	for _, o := range m.Outputs() {
		a.printed = append(a.printed, o.Values...)
	}
	return a
}

// answerOfResponse reads the answer out of a decoded /run reply.
func answerOfResponse(r *runResponse) answer {
	var a answer
	for _, p := range r.Memory {
		a.mem = append(a.mem, p.Values)
	}
	for _, o := range r.Outputs {
		a.printed = append(a.printed, o.Values...)
	}
	return a
}

// encode builds and serializes the reply tcfserve sends for a finished
// run, the way its handler does, and returns the answer the reply carries.
func encode(j *Job, m *machine.Machine, st *machine.Stats, pooled bool, wall time.Duration) answer {
	resp := &runResponse{
		Outcome:      "ok",
		Steps:        st.Steps,
		Cycles:       st.Cycles,
		StageCycles:  make(map[string]int64, machine.NumStages),
		CachedProg:   true,
		PooledMach:   pooled,
		WallClock:    wall.String(),
		SharedReads:  st.SharedReads,
		SharedWrites: st.SharedWrites,
	}
	for i := range st.Stages {
		resp.StageCycles[machine.Stage(i).String()] = st.Stages[i].Cycles
	}
	for _, o := range m.Outputs() {
		resp.Outputs = append(resp.Outputs, outputJSON{Flow: o.Flow, Step: o.Step,
			Values: append([]int64(nil), o.Values...), Text: o.Text})
	}
	for _, seg := range j.Check {
		resp.Memory = append(resp.Memory, peekResult{Addr: seg.Addr, Values: m.Shared().Snapshot(seg.Addr, len(seg.Words))})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp) // encoding plain structs into a buffer cannot fail
	return answerOfResponse(resp)
}
