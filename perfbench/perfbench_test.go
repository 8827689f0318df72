package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// The tests run from perfbench/, one level below the repository root.
const testRoot = ".."

func TestJobListsAreDeterministic(t *testing.T) {
	dump := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if dump(simJobs(7)) != dump(simJobs(7)) {
		t.Error("sim-thick job list differs between two generations with one seed")
	}
	if dump(simJobs(7)) == dump(simJobs(8)) {
		t.Error("sim-thick job list ignores the seed")
	}
	w1, err := warmPrograms(testRoot, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := warmPrograms(testRoot, 7)
	if dump(w1) != dump(w2) {
		t.Error("serve-warm program set differs between two generations with one seed")
	}
	for i := 0; i < 3*coldBlock; i++ {
		if dump(coldJob(7, i)) != dump(coldJob(7, i)) {
			t.Fatalf("serve-cold request %d differs between two generations", i)
		}
	}
}

// TestJobMixIsFixed checks the shares the workload descriptions promise:
// half of each backend, and the serve-cold rejection mix per block.
func TestJobMixIsFixed(t *testing.T) {
	jobs := simJobs(3)
	count := map[string]int{}
	for _, j := range jobs {
		count[j.Backend]++
		if j.Variant != "tcf" {
			count["alt"]++
		}
	}
	if count["interp"] != count["fused"] {
		t.Errorf("sim-thick backends %d interp, %d fused", count["interp"], count["fused"])
	}
	if count["alt"] != len(simShapes) {
		t.Errorf("sim-thick has %d jobs on other variants, want one per shape (%d)", count["alt"], len(simShapes))
	}
	status := map[int]int{}
	for i := 0; i < coldBlock; i++ {
		status[coldJob(3, i).Status]++
	}
	if status[412] != coldOverQuota || status[422] != coldCREW {
		t.Errorf("serve-cold block has %d over-quota and %d CREW-breaking requests", status[412], status[422])
	}
}

// TestCorruptedOutputFails corrupts one expected word and checks the run
// counts every job of it as failed, on the library path and over HTTP.
func TestCorruptedOutputFails(t *testing.T) {
	s, err := newSim(1)
	if err != nil {
		t.Fatal(err)
	}
	j := s.jobs[0]
	j.Check = append([]Segment(nil), j.Check...)
	words := append([]int64(nil), j.Check[0].Words...)
	words[len(words)/2]++
	j.Check[0].Words = words
	s.jobs = []Job{j}
	tl := s.run(100 * time.Millisecond)
	if tl.failed == 0 || tl.failed != tl.attempted {
		t.Fatalf("library path: %d of %d corrupted jobs failed", tl.failed, tl.attempted)
	}
	if ff := failFrac(tl).Value; ff != 1 {
		t.Errorf("fail_frac = %v, want 1", ff)
	}
	if resultOf(tl, nil).Correct {
		t.Error("a run with failed jobs is reported correct")
	}

	rq, err := newRequest(&j)
	if err != nil {
		t.Fatal(err)
	}
	b := startServer(func(int) (*request, error) { return rq, nil })
	defer b.close()
	tl = b.drive(time.Now().Add(time.Minute), 4, nil)
	if tl.attempted != 4 || tl.failed != 4 {
		t.Fatalf("HTTP path: %d of %d corrupted requests failed", tl.failed, tl.attempted)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// checkMetrics requires exactly the named metrics, each finite and with
// the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

// TestSmoke sets up every workload, runs it briefly untraced and traced,
// and checks the metrics against BENCHMARK.json. The traced run goes
// twice: its simulated counts must repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, f.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(testRoot, 5)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			base := b.run(300 * time.Millisecond)
			res := resultOf(base, endToEnd(base, 0.1))
			if !res.Correct {
				t.Fatalf("untraced run failed: %v", base.errs)
			}
			checkMetrics(t, res.Metrics, f.EndToEnd)

			var sims []string
			for k := 0; k < 2; k++ {
				tr, err := b.trace(300*time.Millisecond, base)
				if err != nil {
					t.Fatal(err)
				}
				if tr.t.failed > 0 {
					t.Fatalf("traced run failed: %v", tr.t.errs)
				}
				m := tr.metrics()
				for k, v := range goLayer(base) {
					m[k] = v
				}
				m["fail_frac"] = failFrac(tr.t)
				checkMetrics(t, m, f.PerLayer)
				sims = append(sims, fmt.Sprintf("%+v", tr.tr.sim))
			}
			if sims[0] != sims[1] {
				t.Errorf("simulated counts differ between two traced runs:\n%s\n%s", sims[0], sims[1])
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.99, 5}, {0, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
