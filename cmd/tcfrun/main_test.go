package main

import (
	"tcfpram/internal/isa"

	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTCFESource(t *testing.T) {
	path := write(t, "p.te", `
shared int c[4] @ 300;
func main() {
    #4;
    c[tid] = tid * 7;
    print(radd(c[tid]));
}
`)
	var out bytes.Buffer
	if err := run([]string{"-mem", "300:4", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"[42]", "mem[300:304] = [0 7 14 21]", "variant=single-instruction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunAssemblySource(t *testing.T) {
	path := write(t, "p.tasm", "main:\nLDI S0, 9\nPRINT S0\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[9]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestVariantSelection(t *testing.T) {
	path := write(t, "p.te", "func main() { print(fid); }")
	var out bytes.Buffer
	if err := run([]string{"-variant", "esm", path}, &out); err != nil {
		t.Fatal(err)
	}
	// 16 threads each print their flow id.
	if got := strings.Count(out.String(), "[flow"); got != 16 {
		t.Fatalf("expected 16 outputs on esm, got %d:\n%s", got, out.String())
	}
}

func TestTraceAndDisFlags(t *testing.T) {
	path := write(t, "p.te", "func main() { #4; thick int v = tid; print(radd(v)); }")
	var out bytes.Buffer
	if err := run([]string{"-trace", "-gantt", "-dis", "-stages", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"SETTHICK", "step", "G0:", "backend=interp\n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestMachineShapeFlags(t *testing.T) {
	path := write(t, "p.te", "func main() { print(nproc); print(ngroups); }")
	var out bytes.Buffer
	if err := run([]string{"-groups", "2", "-procs", "3", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[6]") || !strings.Contains(out.String(), "[2]") {
		t.Fatalf("shape flags ignored:\n%s", out.String())
	}
}

func TestLangOverride(t *testing.T) {
	// A .txt file forced to assembly.
	path := write(t, "p.txt", "main:\nPRINTS \"asm\"\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{"-lang", "asm", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "asm") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	te := write(t, "p.te", "func main() { }")
	cases := [][]string{
		{},                        // no file
		{"-variant", "bogus", te}, // unknown variant
		{"-lang", "bogus", te},    // unknown lang
		{"-mem", "nope", te},      // bad mem spec
		{filepath.Join(t.TempDir(), "missing.te")}, // unreadable
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	path := write(t, "p.te", "func main() { #4; halt; }")
	// Using SETTHICK on the fixed-thickness variant is a machine error.
	var out bytes.Buffer
	if err := run([]string{"-variant", "simd", path}, &out); err == nil {
		t.Fatal("expected runtime error")
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	path := write(t, "p.te", "func main() { undeclared = 1; }")
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestRunBinaryObject(t *testing.T) {
	// End-to-end toolchain: assemble to .tbin elsewhere, run here.
	asm := "main:\nLDI S0, 3\nSETTHICK S0\nTID V0\nST V0+600, V0\nHALT\n"
	p, err := isaAssemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.tbin")
	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-mem", "600:3", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mem[600:603] = [0 1 2]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// isaAssemble produces a TCFB blob for the binary-object test.
func isaAssemble(src string) ([]byte, error) {
	p, err := isa.Assemble("t", src)
	if err != nil {
		return nil, err
	}
	return isa.Encode(p), nil
}

func TestSVGOutput(t *testing.T) {
	path := write(t, "p.te", "func main() { #6; thick int v = tid; print(radd(v)); }")
	svg := filepath.Join(t.TempDir(), "sched.svg")
	var out bytes.Buffer
	if err := run([]string{"-svg", svg, path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("not an svg: %.80s", data)
	}
}

// TestGovernanceFlags: -max-steps and -timeout stop runaway programs
// through the same SetLimits/RunContext path the tcfserve server governs
// tenants with.
func TestGovernanceFlags(t *testing.T) {
	spin := write(t, "spin.te", `
shared int b[1] @ 900;
func main() {
	int n = 0;
	while (1) {
		n += 1;
		b[0] = n;
	}
}
`)

	var out bytes.Buffer
	err := run([]string{"-max-steps", "100", spin}, &out)
	if err == nil || !strings.Contains(err.Error(), "max steps exceeded") {
		t.Fatalf("-max-steps: err = %v", err)
	}

	out.Reset()
	err = run([]string{"-timeout", "100ms", spin}, &out)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("-timeout: err = %v", err)
	}

	// Bounds that the program fits under leave it untouched.
	ok := write(t, "ok.te", "func main() { print(42); }")
	out.Reset()
	if err := run([]string{"-max-steps", "100000", "-timeout", "30s", ok}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[42]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestCheckpointAndResume: run with -checkpoint, kill by -max-steps bound
// being irrelevant — instead simulate a crash by running a first process
// with checkpointing on a program long enough to write at least one
// checkpoint, then -resume from the file and require the full output.
func TestCheckpointAndResume(t *testing.T) {
	// ~48 steps on the default config: enough boundaries to checkpoint at.
	prog := write(t, "p.te", `
shared int c[8] @ 300;
func main() {
    #8;
    int i = 0;
    while (i < 6) {
        c[tid] = c[tid] + tid;
        i += 1;
    }
    print(radd(c[tid]));
}
`)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Oracle: straight through, no checkpointing.
	var oracle bytes.Buffer
	if err := run([]string{"-mem", "300:8", prog}, &oracle); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: same results, and the file holds the final state.
	var out bytes.Buffer
	if err := run([]string{"-mem", "300:8", "-checkpoint", ckpt, "-checkpoint-every", "4", prog}, &out); err != nil {
		t.Fatal(err)
	}
	if oracle.String() != out.String() {
		t.Fatalf("checkpointing changed output:\noracle:\n%s\ncheckpointed:\n%s", oracle.String(), out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resume from the last checkpoint: the tail of the run replays and the
	// complete output (including the part from before the checkpoint, which
	// is carried in the snapshot) matches the oracle.
	out.Reset()
	if err := run([]string{"-mem", "300:8", "-resume", ckpt}, &out); err != nil {
		t.Fatal(err)
	}
	if oracle.String() != out.String() {
		t.Fatalf("resumed output diverged:\noracle:\n%s\nresumed:\n%s", oracle.String(), out.String())
	}
}

// TestResumeFlagErrors: -resume rejects a program argument, a missing file,
// and a mismatched machine shape.
func TestResumeFlagErrors(t *testing.T) {
	prog := write(t, "p.te", "func main() { #4; print(radd(tid)); }")
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out bytes.Buffer
	if err := run([]string{"-checkpoint", ckpt, "-checkpoint-every", "1", prog}, &out); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-resume", ckpt, prog}, "no program file"},
		{[]string{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")}, ""},
		{[]string{"-resume", ckpt, "-groups", "2"}, "Groups"},
		{[]string{"-checkpoint", ckpt, "-checkpoint-every", "-3", prog}, "checkpoint-every"},
	}
	for i, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("case %d (%v): expected error", i, tc.args)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestPredictFlag(t *testing.T) {
	path := write(t, "p.te", `
shared int src[8] @ 100 = {3, 1, 4, 1, 5, 9, 2, 6};
func main() {
    #8;
    thick int v = src[tid];
    print(radd(v));
}
`)
	var out bytes.Buffer
	if err := run([]string{"-predict", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "prediction for") {
		t.Fatalf("missing prediction table:\n%s", s)
	}
	// The cost analyzer mirrors the engine exactly: every field must agree.
	if strings.Contains(s, "BOUND VIOLATED") {
		t.Fatalf("lower bound exceeded measurement:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && strings.HasSuffix(f[3], "%") && f[3] != "0%" {
			t.Errorf("nonzero prediction error: %q", line)
		}
	}
}

func TestPredictFlagAssembly(t *testing.T) {
	path := write(t, "p.tasm", "main:\nLDI S0, 9\nPRINT S0\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{"-predict", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "prediction for") {
		t.Fatalf("missing prediction table:\n%s", out.String())
	}
}
