package machine

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/sched"
	"tcfpram/internal/tcf"
)

// StorageBuf is the TCF storage buffer of one group (Figure 13): up to Tp
// resident flows feeding the pipeline, plus the pending queue of flows
// (tasks) beyond the buffer capacity. All residency transitions go through
// its methods; the frontend charges the policy's task-switch costs around
// them.
type StorageBuf struct {
	Resident []*tcf.Flow
	Pending  []*tcf.Flow

	// rrStart rotates the slot a rotating policy (Balanced) serves first,
	// so a thick flow cannot starve its slot-mates of the operation budget.
	rrStart int
}

// Live returns the number of not-Done resident flows.
func (b *StorageBuf) Live() int {
	n := 0
	for _, f := range b.Resident {
		if f.State != tcf.Done {
			n++
		}
	}
	return n
}

// Load returns resident-not-done plus pending flows (placement pressure).
func (b *StorageBuf) Load() int { return b.Live() + len(b.Pending) }

// rotateStart returns the slot to serve first this step and advances the
// rotation.
func (b *StorageBuf) rotateStart(n int) int {
	s := b.rrStart % n
	b.rrStart++
	return s
}

// place makes f resident if a slot is free, otherwise queues it.
func (b *StorageBuf) place(f *tcf.Flow, slots int) {
	if len(b.Resident) < slots {
		b.Resident = append(b.Resident, f)
	} else {
		b.Pending = append(b.Pending, f)
	}
}

// demoteReady parks the longest-resident ready flow at the back of the
// pending queue, reporting whether one was found.
func (b *StorageBuf) demoteReady() bool {
	for i, f := range b.Resident {
		if f.State != tcf.Ready {
			continue
		}
		b.Resident = append(b.Resident[:i], b.Resident[i+1:]...)
		b.Pending = append(b.Pending, f)
		return true
	}
	return false
}

// dropDone compacts Done flows out of the buffer.
func (b *StorageBuf) dropDone() {
	keep := b.Resident[:0]
	for _, f := range b.Resident {
		if f.State != tcf.Done {
			keep = append(keep, f)
		}
	}
	b.Resident = keep
}

// promote moves the queue head into a free slot, reporting whether it did.
func (b *StorageBuf) promote(slots int) bool {
	if len(b.Resident) >= slots || len(b.Pending) == 0 {
		return false
	}
	b.Resident = append(b.Resident, b.Pending[0])
	b.Pending = b.Pending[1:]
	return true
}

// pendingReady reports whether any queued flow could execute.
func (b *StorageBuf) pendingReady() bool {
	for _, f := range b.Pending {
		if f.State == tcf.Ready {
			return true
		}
	}
	return false
}

// displaceBlocked parks one blocked/waiting resident at the back of the
// pending queue and promotes the queue head in its place, reporting whether
// a displacement happened.
func (b *StorageBuf) displaceBlocked() bool {
	idx := -1
	for i, f := range b.Resident {
		if f.State == tcf.Blocked || f.State == tcf.Waiting {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	displaced := b.Resident[idx]
	next := b.Pending[0]
	b.Pending = append(b.Pending[1:], displaced)
	b.Resident[idx] = next
	return true
}

// frontend is the TCF-storage-buffer stage of the Figure 13 pipeline. It
// owns flow residency across the groups' StorageBufs, task-switch
// accounting (charged at the policy's Table 1 rates), and the in-machine
// balanced splitting/rejoin of overly thick flows. Each step it prepares a
// StepPlan for the backend and retires the step's cross-flow events
// afterwards.
type frontend struct {
	m *Machine
}

// prepare opens a step: fail-stop fault events fire at the boundary (a dead
// module's traffic fails over to a mirrored spare before any reference of
// this step), then the policy's step shape is stamped into the plan handed
// to the backend.
func (fr *frontend) prepare() (StepPlan, error) {
	m := fr.m
	if plan := m.cfg.FaultPlan; plan != nil {
		for _, mod := range plan.ModuleFailuresAt(m.stats.Steps) {
			if err := m.shared.FailModule(mod); err != nil {
				return StepPlan{}, m.failw(ErrFaultUnrecoverable, "step %d: %v", m.stats.Steps, err)
			}
			m.stats.Failovers++
		}
	}
	return StepPlan{StepShape: m.shape, Step: m.stats.Steps}, nil
}

// place registers f on group g's storage buffer.
func (fr *frontend) place(f *tcf.Flow, g int) {
	m := fr.m
	f.Home = g
	m.homeGroup[f.ID] = g
	m.groups[g].Buf.place(f, m.cfg.ProcsPerGroup)
}

// leastLoaded picks the group with minimum load (ties: lowest index), the
// horizontal allocation rule of Section 4.
func (fr *frontend) leastLoaded() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i, g := range fr.m.groups {
		if l := g.Buf.Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// retireEvents applies the step's deferred cross-flow events: child
// terminations, splits, fragment rejoins and OS auto-splits. Indexed
// iteration over m.stepEvents: completing an auto-split container can
// cascade a further evChildDone for its own parent.
func (fr *frontend) retireEvents() error {
	m := fr.m
	for i := 0; i < len(m.stepEvents); i++ {
		ev := m.stepEvents[i]
		switch ev.kind {
		case evChildDone:
			parent := ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
			if parent.LiveChildren == 0 && parent.State == tcf.Waiting {
				if parent.ResumePC < 0 {
					// Auto-split container: the fragments were the rest
					// of its execution.
					parent.State = tcf.Done
					if parent.Parent != nil {
						m.stepEvents = append(m.stepEvents, deferredEvent{kind: evChildDone, flow: parent})
					}
				} else {
					parent.State = tcf.Ready
					parent.PC = parent.ResumePC
				}
			}
		case evFragmentRejoin:
			parent := ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
			// Fragments are scalar-identical; any of them restores the
			// container's flow-common state and continuation point.
			parent.SetScalars(ev.flow.Scalars())
			parent.ResumePC = ev.pc
			if parent.LiveChildren == 0 && parent.State == tcf.Waiting {
				parent.State = tcf.Ready
				parent.PC = ev.pc
			}
		case evAutoSplit:
			if err := fr.splitOverThick(ev.flow, ev.thick); err != nil {
				return err
			}
		case evSplit:
			m.stats.Splits++
			for _, arm := range ev.arms {
				g := fr.leastLoaded()
				child := m.newFlow(arm.pc, arm.thick, g)
				child.Parent = ev.flow
				child.SetScalars(ev.flow.Scalars())
				// Flow branch cost (Table 1), charged at the policy's
				// rate: the TCF variants copy the R common registers into
				// the child, O(R); the XMT-style multi-instruction model
				// spawns thread contexts in parallel, O(1).
				m.stats.FlowBranchCycles += m.policy.FlowBranchCycles(isa.NumSRegs)
			}
		}
	}
	return nil
}

// splitOverThick is the balanced splitting of overly thick flows (Section
// 3.3): the continuation of f runs as threshold-sized fragments allocated
// across the least-loaded groups, with internal/sched as the single source
// of truth for fragment sizing; f completes when they all rejoin. Each
// fragment pays the TCF flow-branch cost (the R common registers are copied
// into it) regardless of variant — auto-splitting only exists on the
// thickness-aware variants.
func (fr *frontend) splitOverThick(f *tcf.Flow, thick int) error {
	m := fr.m
	m.stats.AutoSplits++
	frags, err := sched.Fragment(thick, m.cfg.AutoSplitThreshold)
	if err != nil {
		return m.failf("auto-split of flow %d: %v", f.ID, err)
	}
	f.LiveChildren = len(frags)
	offset := 0
	for _, size := range frags {
		g := fr.leastLoaded()
		child := m.newFlow(f.PC, size, g)
		child.Parent = f
		child.SetScalars(f.Scalars())
		child.IsFragment = true
		child.TidOffset = offset
		child.TotalThickness = thick
		offset += size
		m.stats.FlowBranchCycles += int64(isa.NumSRegs)
	}
	return nil
}

// preempt rotates one ready resident flow per group back to the pending
// queue when the time-slice quantum expires, giving queued tasks a turn —
// preemptive time-shared multitasking with TCFs as tasks, charged at the
// policy's preemption rate.
func (fr *frontend) preempt() {
	m := fr.m
	q := m.cfg.TimeSliceSteps
	if q <= 0 || m.stats.Steps == 0 || m.stats.Steps%q != 0 {
		return
	}
	for _, g := range m.groups {
		if len(g.Buf.Pending) == 0 {
			continue
		}
		if g.Buf.demoteReady() {
			m.stats.TaskSwitches++
			m.stats.TaskSwitchCycles += m.policy.PreemptCycles(m.cfg.ProcsPerGroup)
		}
	}
}

// compact drops Done flows from the TCF buffers and promotes pending flows
// into freed slots — the zero-cost task switch of the TCF variants
// (Table 1): rotating the TCF storage buffer costs no cycles there.
func (fr *frontend) compact() {
	m := fr.m
	for _, g := range m.groups {
		g.Buf.dropDone()
		for g.Buf.promote(m.cfg.ProcsPerGroup) {
			fr.noteTaskSwitch()
		}
		// Flows parked at a barrier (or waiting on children) do not
		// execute; displace them so queued ready tasks can run — without
		// this, a barrier across an oversubscribed task set deadlocks
		// (blocked flows hold every slot while the tasks that must still
		// reach the barrier sit in the queue).
		for g.Buf.pendingReady() && g.Buf.displaceBlocked() {
			fr.noteTaskSwitch()
		}
	}
}

// noteTaskSwitch accounts one task rotation at the policy's Table 1 rate:
// free for TCF variants, O(1) for XMT spawning, a full Tp-context switch
// for the thread machines.
func (fr *frontend) noteTaskSwitch() {
	m := fr.m
	m.stats.TaskSwitches++
	m.stats.TaskSwitchCycles += m.policy.TaskSwitchCycles(m.cfg.ProcsPerGroup)
}

// SplitPlan previews the frontend's balanced splitting for a flow of the
// given thickness under the current configuration: the fragment sizes the
// Section 3.3 OS-level splitter would create, or nil when splitting is
// disabled, the policy has no control parallelism to rejoin with, or the
// thickness does not exceed the threshold.
func (m *Machine) SplitPlan(thickness int) ([]int, error) {
	th := m.cfg.AutoSplitThreshold
	if th <= 0 || thickness <= th || !m.policy.Props().ControlParallel {
		return nil, nil
	}
	return sched.Fragment(thickness, th)
}
