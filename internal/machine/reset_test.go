package machine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// snapshot captures everything observable about a finished run that a
// pooled-machine reuse must reproduce bit-identically.
type runSnapshot struct {
	stats   Stats
	outputs []Output
	memory  []int64
}

func snapshotOf(m *Machine) runSnapshot {
	st := *m.Stats()
	st.PerGroupOps = append([]int64(nil), st.PerGroupOps...)
	st.PerGroupCycles = append([]int64(nil), st.PerGroupCycles...)
	return runSnapshot{
		stats:   st,
		outputs: append([]Output(nil), m.Outputs()...),
		memory:  m.Shared().Snapshot(0, 2048),
	}
}

// resetPrograms exercises thickness changes, splits, shared and local
// memory, multioperations, printing and a cross-group flag handoff — the
// state surfaces Reset must scrub.
var resetPrograms = map[string]string{
	// A consumer group spins on a flag its producer raises only after a
	// long private loop, while a thick third flow computes independently.
	"producer-consumer": `
main:
    SPLIT 1 -> producer, 1 -> consumer, 6 -> mixer
    HALT
producer:
    LDI S1, 0
ploop:
    ADD S1, S1, 1
    SLT S2, S1, 25
    BNEZ S2, ploop
    LDI S3, 123
    ST 700, S3
    LDI S4, 1
    ST 701, S4
    JOIN
consumer:
cloop:
    LD S1, 701
    BEQZ S1, cloop
    LD S2, 700
    ST 702, S2
    JOIN
mixer:
    TID V0
    LDI S1, 0
mloop:
    ADD V1, V1, 3
    ADD S1, S1, 1
    SLT S2, S1, 40
    BNEZ S2, mloop
    ST V0+710, V1
    JOIN
`,
	"vector-add": vectorAddSrc,
	"multiop": `
.data 100: 1 2 3 4 5 6 7 8
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MADD 500, V1
    HALT
`,
	"split-print": `
main:
    SPLIT 2 -> left, 3 -> right
    LDI S1, 7
    ST S1+600, S1
    HALT
left:
    TID V0
    ST V0+610, V0
    JOIN
right:
    TID V0
    ST V0+620, V0
    JOIN
`,
}

// TestMachineResetBitIdentity: a Reset machine re-running a program must be
// indistinguishable from a fresh machine — stats, outputs and memory image.
func TestMachineResetBitIdentity(t *testing.T) {
	for name, src := range resetPrograms {
		t.Run(name, func(t *testing.T) {
			prog := isa.MustAssemble(name, src)
			for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced} {
				cfg := Default(kind)
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.Run(); err != nil {
					t.Fatalf("%v fresh: %v", kind, err)
				}
				if got := fresh.Shared().Peek(702); name == "producer-consumer" && got != 123 {
					t.Fatalf("%v: consumer read %d after the flag, want 123", kind, got)
				}
				want := snapshotOf(fresh)

				pooled, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the machine with a different program first, then
				// Reset and re-run the one under test — three generations.
				for i := 0; i < 3; i++ {
					if err := pooled.LoadProgram(isa.MustAssemble("dirty", vectorAddSrc)); err != nil {
						t.Fatal(err)
					}
					if _, err := pooled.Run(); err != nil {
						t.Fatal(err)
					}
					pooled.Reset()
					if err := pooled.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					if _, err := pooled.Run(); err != nil {
						t.Fatalf("%v reused gen %d: %v", kind, i, err)
					}
					got := snapshotOf(pooled)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v gen %d: reused run differs from fresh\ngot  %+v\nwant %+v",
							kind, i, got.stats, want.stats)
					}
					pooled.Reset()
				}
			}
		})
	}
}

// TestMachineResetAfterAbnormalStop: reuse after quota aborts and canceled
// runs must still be bit-identical to fresh execution.
func TestMachineResetAfterAbnormalStop(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(fresh)

	spin := isa.MustAssemble("spin", `
main:
    LDI S0, 1
loop:
    ST S0+900, S0
    ADD S0, S0, 1
    JMP loop
`)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Faulted run: MaxSteps quota.
	if err := m.SetLimits(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(spin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("spin: err = %v, want ErrMaxSteps", err)
	}
	m.Reset()

	// Canceled run.
	if err := m.SetLimits(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(spin); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled: err = %v, want ErrCanceled", err)
	}
	m.Reset()

	// Clean run after both aborts.
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-abort reuse differs from fresh\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
}

// TestMaxThicknessQuota: SETTHICK and SPLIT growth past MaxThickness stop
// the run with ErrThicknessLimit; the same programs run clean unbounded.
func TestMaxThicknessQuota(t *testing.T) {
	setthick := `
main:
    LDI S0, 64
    SETTHICK S0
    TID V0
    ST V0+100, V0
    HALT
`
	split := `
main:
    SPLIT 64 -> arm
    HALT
arm:
    JOIN
`
	for name, src := range map[string]string{"setthick": setthick, "split": split} {
		t.Run(name, func(t *testing.T) {
			if _, err := runSrc(t, variant.SingleInstruction, src, nil); err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 63 })
			if !errors.Is(err, ErrThicknessLimit) {
				t.Fatalf("bounded: err = %v, want ErrThicknessLimit", err)
			}
			if _, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 64 }); err != nil {
				t.Fatalf("bound exactly at need: %v", err)
			}
		})
	}
}

// TestSetLimitsGuards: limits are rejected once flows exist and on bad
// values.
func TestSetLimitsGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(0, -1); err == nil {
		t.Fatal("negative MaxThickness accepted")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(10, 0); err == nil {
		t.Fatal("SetLimits accepted on a booted machine")
	}
}
