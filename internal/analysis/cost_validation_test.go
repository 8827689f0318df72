// Validation gate for the static cost analyzer: over the whole tcf-e
// corpus, on every variant, across BOTH backends (interp, fused) and BOTH
// lane modes (serial, lane-parallel), a resolved prediction must equal the
// measured Stats field for field.
//
// The documented tolerance band is therefore ZERO for resolved
// predictions: the analyzer mirrors the engine's cost equations exactly,
// and any drift between the two is a bug in one of them. Unresolved
// predictions (analysis budget stops, and the Balanced and
// MultiInstruction step shapes the abstract executor does not model) must
// still be sound lower bounds.
package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

func corpusFiles(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) < 10 {
		tb.Fatalf("corpus too small: %d programs", len(files))
	}
	return files
}

func compileCorpus(tb testing.TB, path string) *codegen.Compiled {
	tb.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := codegen.CompileSource(filepath.Base(path), string(src))
	if err != nil {
		tb.Fatalf("compile %s: %v", path, err)
	}
	return c
}

// measure runs the program on the real engine and returns the measured
// stats plus the run error (capability rejections, runtime errors).
func measure(tb testing.TB, c *codegen.Compiled, kind variant.Kind, backend machine.Backend, tweak func(*machine.Config)) (*machine.Stats, error) {
	tb.Helper()
	cfg := machine.Default(kind)
	cfg.Backend = backend
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.LoadProgram(c.Program); err != nil {
		tb.Fatal(err)
	}
	for _, seg := range c.LocalData {
		for g := 0; g < cfg.Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				tb.Fatal(err)
			}
		}
	}
	_, runErr := m.Run()
	return m.Stats(), runErr
}

// statRows flattens the Stats fields the analyzer predicts, in report
// order, so mismatches name the field.
func statRows(st *machine.Stats) []struct {
	name string
	v    int64
} {
	return []struct {
		name string
		v    int64
	}{
		{"steps", st.Steps},
		{"cycles", st.Cycles},
		{"ops", st.Ops},
		{"scalar_ops", st.ScalarOps},
		{"instr_fetches", st.InstrFetches},
		{"shared_reads", st.SharedReads},
		{"shared_writes", st.SharedWrites},
		{"local_reads", st.LocalReads},
		{"local_writes", st.LocalWrites},
		{"multiop_refs", st.MultiopRefs},
		{"overhead_cycles", st.OverheadCycles},
		{"stall_cycles", st.StallCycles},
		{"flow_branch_cycles", st.FlowBranchCycles},
		{"task_switch_cycles", st.TaskSwitchCycles},
		{"barriers", st.Barriers},
		{"splits", st.Splits},
		{"joins", st.Joins},
		{"flows_created", st.FlowsCreated},
		{"max_live_flows", int64(st.MaxLiveFlows)},
	}
}

func reportBounds(rep *analysis.CostReport) []analysis.Bound {
	return []analysis.Bound{
		rep.Steps, rep.Cycles, rep.Ops, rep.ScalarOps, rep.InstrFetches,
		rep.SharedReads, rep.SharedWrites, rep.LocalReads, rep.LocalWrites,
		rep.MultiopRefs, rep.OverheadCycles, rep.StallCycles,
		rep.FlowBranchCycles, rep.TaskSwitchCycles, rep.Barriers,
		rep.Splits, rep.Joins, rep.FlowsCreated, rep.MaxLiveFlows,
	}
}

// laneModes are the lockstep engine's two ways of executing a step: lanes
// run serially, or thick instructions are chunked across goroutines (the
// threshold of 1 makes chunking engage even on the corpus's small flows).
// Lane chunking must not move any predicted Stats field.
var laneModes = []struct {
	name  string
	tweak func(*machine.Config)
}{
	{"lockstep", nil},
	{"lockstep-parallel", func(c *machine.Config) {
		c.Parallel = true
		c.LaneParallelThreshold = 1
	}},
}

// TestCostPredictionsMatchMeasuredStats is the corpus validation gate.
func TestCostPredictionsMatchMeasuredStats(t *testing.T) {
	backends := []machine.Backend{machine.BackendInterp, machine.BackendFused}
	var laneChunks int64
	for _, path := range corpusFiles(t) {
		c := compileCorpus(t, path)
		for _, kind := range variant.Kinds() {
			rep := analysis.Cost(c, analysis.DefaultCostParams(kind))
			for _, backend := range backends {
				for _, mode := range laneModes {
					name := fmt.Sprintf("%s/%s/%v/%s", filepath.Base(path), kind, backend, mode.name)
					t.Run(name, func(t *testing.T) {
						st, runErr := measure(t, c, kind, backend, mode.tweak)
						laneChunks += st.LaneChunks
						if runErr != nil {
							// The engine rejected or aborted the program; the
							// analyzer must have predicted an abnormal stop
							// (or given up), never a clean resolution.
							if rep.Resolved && rep.Note == "" {
								t.Fatalf("engine error %q but analyzer predicted a clean run", runErr)
							}
							return
						}
						rows := statRows(st)
						bounds := reportBounds(rep)
						if rep.Resolved {
							if rep.Note != "" {
								t.Fatalf("predicted runtime error %q but the run finished cleanly", rep.Note)
							}
							for i, row := range rows {
								if !bounds[i].Exact() || bounds[i].Min != row.v {
									t.Errorf("%s: predicted %v, measured %d", row.name, bounds[i], row.v)
								}
							}
							return
						}
						// Unresolved predictions must still be sound lower
						// bounds on the measured run.
						for i, row := range rows {
							if bounds[i].Min > row.v {
								t.Errorf("%s: lower bound %d exceeds measured %d (reason %q)",
									row.name, bounds[i].Min, row.v, rep.Reason)
							}
						}
					})
				}
			}
		}
	}
	if laneChunks == 0 {
		t.Fatal("lane chunking never engaged in lockstep-parallel mode; the lane axis proved nothing")
	}
}

// TestCostResolvesCorpus pins that the analyzer fully resolves the entire
// corpus under the reference TCF variant — the predictions the golden file
// records are exact, not fallbacks.
func TestCostResolvesCorpus(t *testing.T) {
	for _, path := range corpusFiles(t) {
		c := compileCorpus(t, path)
		rep := analysis.Cost(c, analysis.DefaultCostParams(variant.SingleInstruction))
		if !rep.Resolved {
			t.Errorf("%s: not resolved: %s", filepath.Base(path), rep.Reason)
		}
	}
}

// TestCostUnsupportedShapesFallBack checks Balanced and MultiInstruction
// degrade to static Min-only bounds instead of pretending exactness.
func TestCostUnsupportedShapesFallBack(t *testing.T) {
	c := compileCorpus(t, filepath.Join("..", "codegen", "testdata", "reduce.te"))
	for _, kind := range []variant.Kind{variant.Balanced, variant.MultiInstruction} {
		rep := analysis.Cost(c, analysis.DefaultCostParams(kind))
		if rep.Resolved {
			t.Fatalf("%v: unsupported shape reported resolved", kind)
		}
		if !strings.Contains(rep.Reason, "step shape") {
			t.Fatalf("%v: unexpected reason %q", kind, rep.Reason)
		}
		if rep.MaxThickness.Max < 0 {
			t.Fatalf("%v: static thickness ceiling missing: %+v", kind, rep.MaxThickness)
		}
	}
}
