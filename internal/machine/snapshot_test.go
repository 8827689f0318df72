package machine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// memSink collects checkpoints in memory, one buffer per write.
type memSink struct {
	steps []int64
	snaps [][]byte
	fail  error // when set, the next Checkpoint returns it
}

func (s *memSink) Checkpoint(step int64, snap func(w io.Writer) error) error {
	if s.fail != nil {
		return s.fail
	}
	var buf bytes.Buffer
	if err := snap(&buf); err != nil {
		return err
	}
	s.steps = append(s.steps, step)
	s.snaps = append(s.snaps, buf.Bytes())
	return nil
}

// stepN boots m and advances at most n steps (stopping early when done).
func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n && !m.Done(); i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestSnapshotRestoreBitIdentity: snapshot mid-run, restore into a new
// machine, run to completion — outputs, memory image and the full Stats must
// match the uninterrupted oracle at every kill point.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	for name, src := range resetPrograms {
		t.Run(name, func(t *testing.T) {
			prog := isa.MustAssemble(name, src)
			for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
				cfg := Default(kind)
				oracle, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := oracle.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.Run(); err != nil {
					t.Fatalf("%v oracle: %v", kind, err)
				}
				want := snapshotOf(oracle)
				total := int(oracle.Stats().Steps)

				for kill := 0; kill <= total; kill++ {
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					stepN(t, m, kill)
					var buf bytes.Buffer
					if err := m.Snapshot(&buf); err != nil {
						t.Fatalf("%v kill=%d: snapshot: %v", kind, kill, err)
					}
					r, err := Restore(bytes.NewReader(buf.Bytes()), cfg)
					if err != nil {
						t.Fatalf("%v kill=%d: restore: %v", kind, kill, err)
					}
					if _, err := r.Run(); err != nil {
						t.Fatalf("%v kill=%d: resumed run: %v", kind, kill, err)
					}
					if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v kill=%d: resumed run differs from oracle\ngot  %+v\nwant %+v",
							kind, kill, got.stats, want.stats)
					}
				}
			}
		})
	}
}

// TestSnapshotRestoreWithFaultPlan: the fault plan's decisions are pure
// functions of (seed, step, seq), so a restored run must replay exactly the
// faults the uninterrupted run saw — same Retransmits, same Failovers, same
// cycle counts.
func TestSnapshotRestoreWithFaultPlan(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	cfg.FaultPlan = &fault.Plan{
		Seed:        42,
		MemDropRate: 0.25, // aggressive: every run sees retransmission stalls
		Modules:     []fault.ModuleFault{{Module: 1, Step: 2}},
	}

	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)
	if oracle.Stats().Retransmits == 0 && oracle.Stats().Failovers == 0 {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}

	for kill := 1; kill < int(oracle.Stats().Steps); kill++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		stepN(t, m, kill)
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("kill=%d: faulted resume differs\ngot  %+v\nwant %+v", kill, got.stats, want.stats)
		}
	}
}

// TestRestoreConfigMismatch: restore onto a machine that differs in any
// behavior-relevant field must fail with an error naming the field.
func TestRestoreConfigMismatch(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 2)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		field string
		tweak func(*Config)
	}{
		{"Groups", func(c *Config) { c.Groups = 2 }},
		{"ProcsPerGroup", func(c *Config) { c.ProcsPerGroup = 8 }},
		{"SharedWords", func(c *Config) { c.SharedWords = 1 << 12 }},
		{"MemLatencyBase", func(c *Config) { c.MemLatencyBase = 2 }},
		{"MaxSteps", func(c *Config) { c.MaxSteps = 99 }},
		{"WatchdogSteps", func(c *Config) { c.WatchdogSteps = 17 }},
		{"FaultPlan", func(c *Config) { c.FaultPlan = fault.Random(7, 4, 4) }},
	}
	for _, tc := range cases {
		bad := cfg
		tc.tweak(&bad)
		_, err := Restore(bytes.NewReader(buf.Bytes()), bad)
		if err == nil {
			t.Fatalf("%s mismatch accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s mismatch error %q does not name the field", tc.field, err)
		}
	}

	// Result-neutral knobs may differ freely.
	free := cfg
	free.Parallel = true
	free.LaneParallelThreshold = 8
	if _, err := Restore(bytes.NewReader(buf.Bytes()), free); err != nil {
		t.Fatalf("result-neutral config change rejected: %v", err)
	}
}

// TestSnapshotRefusedOnFailedMachine: a machine that stopped with an error
// has no well-defined boundary state to save.
func TestSnapshotRefusedOnFailedMachine(t *testing.T) {
	spin := isa.MustAssemble("spin", `
main:
    JMP main
`)
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(spin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if err := m.Snapshot(io.Discard); err == nil {
		t.Fatal("snapshot of a failed machine accepted")
	}
}

// TestRestoreRejectsCorruptSnapshot: bit flips and truncation must be
// detected, never silently restored.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 2)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := Restore(bytes.NewReader(data[:len(data)/2]), cfg); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	for _, flip := range []int{len(data) / 3, len(data) / 2, len(data) - 12} {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x40
		if _, err := Restore(bytes.NewReader(mut), cfg); err == nil {
			t.Fatalf("bit flip at %d accepted", flip)
		}
	}
}

// TestRunContextCheckpointing: the CheckpointEvery trigger fires at exact
// step multiples, the last snapshot resumes bit-identically, and a sink
// failure stops the run.
func TestRunContextCheckpointing(t *testing.T) {
	prog := isa.MustAssemble("multiop", resetPrograms["multiop"])
	cfg := Default(variant.SingleInstruction)

	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)
	if oracle.Stats().Steps < 4 {
		t.Fatalf("program too short (%d steps) to exercise checkpointing", oracle.Stats().Steps)
	}

	sink := &memSink{}
	ckpt := cfg
	ckpt.CheckpointEvery = 2
	ckpt.CheckpointSink = sink
	m, err := New(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointing changed results\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
	if len(sink.snaps) == 0 {
		t.Fatal("no checkpoints written")
	}
	for i, s := range sink.steps {
		if s%2 != 0 {
			t.Fatalf("checkpoint %d at step %d, want a multiple of CheckpointEvery", i, s)
		}
	}

	// Resume from every snapshot written along the way.
	for i, snap := range sink.snaps {
		r, err := Restore(bytes.NewReader(snap), cfg)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if r.Stats().Steps != sink.steps[i] {
			t.Fatalf("snapshot %d restored at step %d, want %d", i, r.Stats().Steps, sink.steps[i])
		}
		if _, err := r.Run(); err != nil {
			t.Fatalf("snapshot %d resume: %v", i, err)
		}
		if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: resumed run differs from oracle", i)
		}
	}

	// A failing sink stops the run with its error.
	bad := &memSink{fail: errors.New("disk full")}
	ckpt.CheckpointSink = bad
	m2, err := New(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sink failure err = %v, want the sink's error", err)
	}
}

// TestSetCheckpointingGuards: rejected once flows exist; cleared by Reset.
func TestSetCheckpointingGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(-1, nil); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
	sink := &memSink{}
	if err := m.SetCheckpointing(4, sink); err != nil {
		t.Fatal(err)
	}
	if m.Config().CheckpointEvery != 4 || m.Config().CheckpointSink == nil {
		t.Fatal("SetCheckpointing did not stick")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(4, sink); err == nil {
		t.Fatal("SetCheckpointing accepted on a booted machine")
	}
	m.Reset()
	if m.Config().CheckpointEvery != 0 || m.Config().CheckpointSink != nil {
		t.Fatal("Reset kept the checkpoint wiring")
	}
}

// TestRestoredMachineIsSnapshottable: a restored machine can itself be
// snapshotted and restored (checkpoint chains across repeated crashes).
func TestRestoredMachineIsSnapshottable(t *testing.T) {
	prog := isa.MustAssemble("split-print", resetPrograms["split-print"])
	cfg := Default(variant.SingleInstruction)
	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 1)
	for !m.Done() {
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if m, err = Restore(bytes.NewReader(buf.Bytes()), cfg); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-every-step run differs from oracle\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore. Seeds are real mid-run
// snapshots of tcf-e corpus programs, so mutations reach every section of
// the decoder. Whatever the input, Restore must not panic and must return
// exactly one of a machine or an error.
func FuzzRestore(f *testing.F) {
	cfg := Default(variant.SingleInstruction)
	for _, name := range []string{"histogram.te", "nested_parallel.te", "numa_chain.te"} {
		src, err := os.ReadFile(filepath.Join("..", "codegen", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		c, err := codegen.CompileSource(name, string(src))
		if err != nil {
			f.Fatal(err)
		}
		sink := &memSink{}
		run := cfg
		run.CheckpointEvery = 8
		run.CheckpointSink = sink
		m, err := New(run)
		if err != nil {
			f.Fatal(err)
		}
		if err := m.LoadProgram(c.Program); err != nil {
			f.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			f.Fatal(err)
		}
		if len(sink.snaps) == 0 {
			f.Fatalf("%s: no checkpoint taken", name)
		}
		f.Add(sink.snaps[0])
		f.Add(sink.snaps[len(sink.snaps)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Restore(bytes.NewReader(data), cfg)
		if (m == nil) == (err == nil) {
			t.Fatalf("Restore returned machine %v and error %v", m != nil, err)
		}
	})
}
