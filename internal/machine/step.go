package machine

import (
	"cmp"
	"fmt"
	"slices"

	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// StepPlan is the hand-off structure between the pipeline stages of one
// step: the frontend stamps the policy's step shape and the step index, the
// backend executes it. It is the only coupling between the two halves of
// the engine.
type StepPlan struct {
	variant.StepShape
	Step int64
}

// Step advances the machine by one synchronous step through the Figure 13
// pipeline: frontend prepare (fault boundary events, plan stamping) →
// backend operation generation → deterministic merge → memory commit →
// frontend retire (cross-flow events, task rotation, barrier release).
// All per-step state lives in arenas on the Machine: the steady-state step
// loop allocates nothing (with tracing disabled).
func (m *Machine) Step() error {
	if m.prog == nil || len(m.flows) == 0 {
		return m.failf("Step before LoadProgram/Boot")
	}
	if m.runErr != nil {
		return m.runErr
	}
	plan, err := m.front.prepare()
	if err != nil {
		return err
	}
	return m.runStep(plan)
}

// runStep drives the staged pipeline for one prepared plan.
func (m *Machine) runStep(plan StepPlan) error {
	stagesBefore := m.stats.Stages

	m.back.generate(plan)
	stepCycles, err := m.back.merge()
	if err != nil {
		return err
	}

	discR, discW, err := m.auditDiscipline()
	if err != nil {
		return err
	}

	if err := m.back.commit(); err != nil {
		return err
	}

	// Frontend retire: cross-flow events (splits, joins, auto-split
	// fragmentation and rejoin) and task rotation both charge their Table 1
	// costs into the step's critical path.
	branchBefore := m.stats.FlowBranchCycles
	eventsBefore := m.stats.Splits + m.stats.Joins + m.stats.AutoSplits
	if err := m.front.retireEvents(); err != nil {
		return err
	}
	stepCycles += m.stats.FlowBranchCycles - branchBefore

	switchBefore := m.stats.TaskSwitchCycles
	switchesBefore := m.stats.TaskSwitches
	m.front.preempt()
	m.front.compact()
	stepCycles += m.stats.TaskSwitchCycles - switchBefore

	m.stats.Stages[StageFrontend].Cycles +=
		(m.stats.FlowBranchCycles - branchBefore) + (m.stats.TaskSwitchCycles - switchBefore)
	m.stats.Stages[StageFrontend].Events +=
		(m.stats.Splits + m.stats.Joins + m.stats.AutoSplits - eventsBefore) +
			(m.stats.TaskSwitches - switchesBefore)

	// Barrier release: only when no flow anywhere can still run toward
	// the barrier and at least one is blocked at a BAR.
	if !m.anyReadyAnywhere() {
		m.releaseBarriers()
	}

	m.finishStep(stepCycles, stagesBefore, discR, discW)

	// Liveness: if nothing can ever run again, fail loudly.
	if m.liveFlows() > 0 && !m.anyReadyAnywhere() {
		return m.failw(ErrDeadlock, "step %d: deadlock: live flows but none ready (missing JOIN?)", m.stats.Steps)
	}
	return nil
}

// auditDiscipline runs the memory-discipline audit (Config.MemDiscipline)
// over the step's recorded access sets, before commit, so a violating step
// stops the machine without applying its writes.
func (m *Machine) auditDiscipline() (discR, discW int64, err error) {
	if len(m.discAccs) == 0 {
		return 0, 0, nil
	}
	for i := range m.discAccs {
		if m.discAccs[i].write {
			discW++
		} else {
			discR++
		}
	}
	m.stats.DiscReads += discR
	m.stats.DiscWrites += discW
	if v := m.checkDiscipline(); v != nil {
		v.Step = m.stats.Steps
		m.runErr = fmt.Errorf("machine: step %d: %w", m.stats.Steps, v)
		return discR, discW, m.runErr
	}
	return discR, discW, nil
}

// releaseBarriers unblocks every BAR-parked flow. Callers have established
// that no flow anywhere can still run toward the barrier.
func (m *Machine) releaseBarriers() {
	for _, f := range m.flowList {
		if f.State == tcf.Blocked {
			f.State = tcf.Ready
		}
	}
}

// finishStep closes the step's books: the cycle floor, cumulative counters,
// trace/stage-observer emission, and the deterministic output ordering.
func (m *Machine) finishStep(stepCycles int64, stagesBefore [NumStages]StageStats, discR, discW int64) {
	if stepCycles == 0 {
		stepCycles = 1
	}
	m.stats.Cycles += stepCycles
	m.stats.Steps++

	if m.cfg.TraceEnabled || m.cfg.StageObserver != nil {
		var delta [NumStages]StageStats
		for s := range delta {
			delta[s].Cycles = m.stats.Stages[s].Cycles - stagesBefore[s].Cycles
			delta[s].Events = m.stats.Stages[s].Events - stagesBefore[s].Events
		}
		if m.cfg.TraceEnabled {
			// Chunks grow with the trace so short runs stay cheap and long
			// runs amortize: 8, then ~len(trace) capped at 256.
			if len(m.recArena) == 0 {
				m.recArena = make([]StepRecord, min(256, max(8, len(m.trace))))
			}
			rec := &m.recArena[0]
			m.recArena = m.recArena[1:]
			ng := len(m.groups)
			if len(m.gcArena) < ng {
				m.gcArena = make([]int64, min(256, max(8, len(m.trace)))*ng)
			}
			rec.GroupCycles, m.gcArena = m.gcArena[:ng:ng], m.gcArena[ng:]
			rec.Step, rec.Cycles, rec.Stages = m.stats.Steps-1, stepCycles, delta
			rec.DiscReads, rec.DiscWrites = discR, discW
			n := 0
			for _, x := range m.execs {
				n += len(x.slices)
			}
			if len(m.sliceArena) < n {
				m.sliceArena = make([]SliceExec, max(n, min(128, max(16, 2*len(m.trace)))))
			}
			rec.Slices, m.sliceArena = m.sliceArena[:0:n], m.sliceArena[n:]
			for _, x := range m.execs {
				rec.GroupCycles[x.g.Index] = x.ops + x.scalarOps + x.stall
				rec.Slices = append(rec.Slices, x.slices...)
			}
			if m.trace == nil {
				m.trace = make([]*StepRecord, 0, 16)
			}
			m.trace = append(m.trace, rec)
		}
		if obs := m.cfg.StageObserver; obs != nil {
			for s := Stage(0); s < NumStages; s++ {
				obs.ObserveStage(m.stats.Steps-1, s, delta[s])
			}
		}
	}

	// Deterministic output ordering within the step: by flow id, then by
	// emission order.
	slices.SortStableFunc(m.stepOutputs, func(a, b Output) int { return cmp.Compare(a.Flow, b.Flow) })
	m.output = append(m.output, m.stepOutputs...)
}

func (m *Machine) anyReadyAnywhere() bool {
	for _, f := range m.flowList {
		if f.State == tcf.Ready {
			return true
		}
	}
	return false
}
