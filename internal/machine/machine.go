package machine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// Group is one physical pipeline: Tp TCF processor slots sharing a local
// memory block. Buf is the group's TCF storage buffer (Figure 13), owned by
// the frontend.
type Group struct {
	Index int
	Local *mem.Local
	Buf   StorageBuf
}

// Machine is one extended PRAM-NUMA machine instance, organized as the
// staged pipeline of Figure 13: the frontend owns the TCF storage buffers
// (residency, task rotation, balanced splitting of overly thick flows), the
// backend owns operation generation, memory resolution and commit, and each
// step hands a StepPlan from the one to the other.
type Machine struct {
	cfg    Config
	policy variant.Policy
	shape  variant.StepShape
	prog   *isa.Program
	// fprog is the compiled program of the fused backend (Config.Backend ==
	// BackendFused), built at LoadProgram/Restore; nil under the interpreter.
	fprog *fuse.Program

	front frontend
	back  backend

	shared *mem.Shared
	groups []*Group

	flows      map[int]*tcf.Flow
	flowList   []*tcf.Flow // same flows in creation (= id) order: the per-step scans iterate this, not the map
	homeGroup  map[int]int // flow id -> group index
	nextFlowID int

	combiners [len(combineKinds)]*multiop.Combiner

	// Step-engine state, allocated once and reused every step (exec.go):
	// per-group execution arenas, the flattened group×module distance
	// table, and the merge scratch slices.
	execs       []*groupExec
	nmods       int
	dist        []int
	stepOutputs []Output
	stepEvents  []deferredEvent
	routes      []prefixRoute
	discAccs    []discAcc // step's recorded accesses (Config.MemDiscipline)
	wg          sync.WaitGroup

	stats  Stats
	output []Output

	halted  bool
	runErr  error
	stepRec *StepRecord // current step's trace record (when tracing)
	trace   []*StepRecord

	// recArena/gcArena chunk-allocate trace records and their GroupCycles
	// rows so tracing costs ~1 allocation per step instead of several.
	// Records handed out stay alive through m.trace; Reset drops both.
	recArena   []StepRecord
	gcArena    []int64
	sliceArena []SliceExec
}

// New builds a machine for cfg (normalized) with an empty program.
func New(cfg Config) (*Machine, error) {
	c, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	pol, err := variant.PolicyFor(c.Variant)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	shared, err := mem.NewShared(c.SharedWords, c.Groups, c.WritePolicy)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		cfg:       c,
		policy:    pol,
		shape:     pol.Shape(c.machineShape()),
		shared:    shared,
		flows:     make(map[int]*tcf.Flow, 8),
		flowList:  make([]*tcf.Flow, 0, 8),
		homeGroup: make(map[int]int, 8),
	}
	m.front.m = m
	m.back.m = m
	copy(m.combiners[:], multiop.NewCombinerBank(combineKinds[:]))
	m.shared.SetParallel(c.Parallel)
	m.stats.PerGroupOps = make([]int64, c.Groups)
	m.stats.PerGroupCycles = make([]int64, c.Groups)
	// One backing array per kind: the per-group structs are small and
	// always allocated together, so batching them keeps machine
	// construction (pool misses, benchmark iterations) cheap.
	garr := make([]Group, c.Groups)
	xarr := make([]groupExec, c.Groups)
	m.groups = make([]*Group, c.Groups)
	m.execs = make([]*groupExec, c.Groups)
	for i := 0; i < c.Groups; i++ {
		local, err := mem.NewLocal(i, c.LocalWords)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		garr[i] = Group{Index: i, Local: local}
		xarr[i] = groupExec{m: m, g: &garr[i],
			fenv: fuse.Env{Group: i, Groups: c.Groups, Procs: c.TotalProcessors()}}
		m.groups[i] = &garr[i]
		m.execs[i] = &xarr[i]
	}
	// Group→module distances never change (failover remaps the module
	// index, not the metric), so the hot path indexes a flat table instead
	// of calling into the topology per reference.
	m.nmods = m.shared.Modules()
	m.dist = make([]int, c.Groups*m.nmods)
	for g := 0; g < c.Groups; g++ {
		for mod := 0; mod < m.nmods; mod++ {
			m.dist[g*m.nmods+mod] = c.Topology.Distance(g, mod)
		}
	}
	for _, x := range m.execs {
		for _, d := range m.dist[x.g.Index*m.nmods:][:m.nmods] {
			x.rowMax = max(x.rowMax, d)
		}
	}
	return m, nil
}

// combineKinds lists the combining-operation kinds with a global combiner;
// combinerIndex maps a kind to its slot.
var combineKinds = [...]isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN}

func combinerIndex(op isa.Op) int {
	switch op {
	case isa.ADD:
		return 0
	case isa.AND:
		return 1
	case isa.OR:
		return 2
	case isa.MAX:
		return 3
	case isa.MIN:
		return 4
	}
	panic(fmt.Sprintf("machine: no combiner for %s", op))
}

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Shared exposes the shared memory (inspection, preloading workloads).
func (m *Machine) Shared() *mem.Shared { return m.shared }

// LocalMem exposes group g's local memory.
func (m *Machine) LocalMem(g int) *mem.Local { return m.groups[g].Local }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

// Outputs returns the PRINT/PRINTS records in deterministic order.
func (m *Machine) Outputs() []Output { return m.output }

// Trace returns the recorded step trace (TraceEnabled configs only).
func (m *Machine) Trace() []*StepRecord { return m.trace }

// Flows returns all flows ever created, sorted by id.
func (m *Machine) Flows() []*tcf.Flow {
	out := append([]*tcf.Flow(nil), m.flowList...)
	slices.SortFunc(out, func(a, b *tcf.Flow) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// addFlow registers f in both flow containers.
func (m *Machine) addFlow(f *tcf.Flow) {
	m.flows[f.ID] = f
	m.flowList = append(m.flowList, f)
}

// Flow returns the flow with the given id, or nil.
func (m *Machine) Flow(id int) *tcf.Flow { return m.flows[id] }

// LoadProgram installs p and preloads its data segments into shared memory.
func (m *Machine) LoadProgram(p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, d := range p.Data {
		if err := m.shared.Load(d.Addr, d.Words); err != nil {
			return fmt.Errorf("machine: loading %s: %w", p.Name, err)
		}
	}
	m.prog = p
	m.fprog = nil
	if m.cfg.Backend == BackendFused {
		m.fprog = fuse.Cached(p)
	}
	return nil
}

// Program returns the loaded program.
func (m *Machine) Program() *isa.Program { return m.prog }

// newFlow allocates a flow and registers it on group g (resident if a slot
// is free, otherwise pending).
func (m *Machine) newFlow(pc, thickness, g int) *tcf.Flow {
	f := tcf.New(m.nextFlowID, pc, thickness)
	m.nextFlowID++
	m.addFlow(f)
	m.front.place(f, g)
	m.stats.FlowsCreated++
	if live := m.liveFlows(); live > m.stats.MaxLiveFlows {
		m.stats.MaxLiveFlows = live
	}
	return f
}

// liveFlows counts flows not yet Done.
func (m *Machine) liveFlows() int {
	n := 0
	for _, f := range m.flowList {
		if f.State != tcf.Done {
			n++
		}
	}
	return n
}

// Boot creates the initial flow population the variant's policy prescribes:
//
//   - TCF variants (SingleInstruction, Balanced, MultiInstruction): one flow
//     of thickness 1 at the program entry (Section 2.2: a program starts
//     with a flow of thickness one).
//   - Thread variants (SingleOperation, ConfigurableSingleOperation): P*Tp
//     flows of thickness 1, one per slot; flow id = global thread id.
//   - FixedThickness: one flow of the fixed vector width on group 0.
func (m *Machine) Boot() error {
	if m.prog == nil {
		return fmt.Errorf("machine: Boot before LoadProgram")
	}
	if len(m.flows) != 0 {
		return fmt.Errorf("machine: already booted")
	}
	entry := m.prog.Entry()
	for _, bf := range m.policy.BootFlows(m.cfg.machineShape()) {
		m.newFlow(entry, bf.Thickness, bf.Group)
	}
	return nil
}

// Done reports whether every flow has terminated (or the machine errored).
func (m *Machine) Done() bool {
	if m.halted || m.runErr != nil {
		return true
	}
	if len(m.flows) == 0 {
		return false
	}
	return m.liveFlows() == 0
}

// Err returns the runtime error that stopped the machine, if any.
func (m *Machine) Err() error { return m.runErr }

// Run boots (if needed) and steps the machine until completion. It returns
// the final statistics.
func (m *Machine) Run() (*Stats, error) { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked
// between steps, and a canceled run stops with an error wrapping
// ErrCanceled. The progress watchdog (Config.WatchdogSteps) also runs here,
// converting silent livelock into an error wrapping ErrDeadlock.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) {
	if len(m.flows) == 0 {
		if err := m.Boot(); err != nil {
			return nil, err
		}
	}
	wd := newWatchdog(m.cfg.WatchdogSteps)
	for !m.Done() {
		if err := ctx.Err(); err != nil {
			m.runErr = fmt.Errorf("machine: %w after %d steps: %v", ErrCanceled, m.stats.Steps, err)
			break
		}
		if m.stats.Steps >= m.cfg.MaxSteps {
			m.runErr = fmt.Errorf("machine: exceeded MaxSteps=%d (livelock?): %w", m.cfg.MaxSteps, ErrMaxSteps)
			break
		}
		if wd.window > 0 && wd.observe(m) {
			m.runErr = fmt.Errorf("machine: watchdog: state cycle with no observable work over %d+ steps (silent livelock): %w", wd.window, ErrDeadlock)
			break
		}
		if err := m.Step(); err != nil {
			m.runErr = err
			break
		}
		// Periodic checkpointing (Config.CheckpointEvery): the snapshot is
		// taken here, at the step boundary, where the machine state is
		// well-defined. The trigger lives in RunContext rather than Step so
		// the direct step loop stays allocation-free when disabled.
		if every := m.cfg.CheckpointEvery; every > 0 && m.cfg.CheckpointSink != nil && m.stats.Steps%every == 0 {
			if err := m.cfg.CheckpointSink.Checkpoint(m.stats.Steps, m.Snapshot); err != nil {
				m.runErr = fmt.Errorf("machine: checkpoint at step %d: %w", m.stats.Steps, err)
				break
			}
		}
	}
	return &m.stats, m.runErr
}

// progressMark summarizes the observable work of the run: memory traffic
// (issued and committed references, local reads and writes), flow
// population events (splits, joins, creations), barriers and outputs.
// Every term is monotone, so the mark is constant over a stretch of steps
// exactly when the machine did no observable work in that stretch. Quiet is
// not itself livelock — register-only computation is quiet too — so the
// watchdog treats a quiet stretch only as the trigger to start cycle
// detection (watchdog.go). Spin-waiting on shared or local memory still
// counts as work (the reads are issued traffic), so lockstep polling
// patterns never even reach the detector.
func (m *Machine) progressMark() int64 {
	_, committed, issued := m.shared.Stats()
	return committed + issued +
		m.stats.LocalReads + m.stats.LocalWrites +
		m.stats.FlowsCreated + m.stats.Splits + m.stats.Joins +
		m.stats.Barriers + int64(len(m.output))
}

// failf records a runtime error and stops the machine.
func (m *Machine) failf(format string, args ...any) error {
	err := fmt.Errorf("machine: "+format, args...)
	m.runErr = err
	return err
}

// failw is failf wrapping a sentinel from the error taxonomy.
func (m *Machine) failw(sentinel error, format string, args ...any) error {
	err := fmt.Errorf("machine: "+format+": %w", append(args, sentinel)...)
	m.runErr = err
	return err
}
