package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/variant"
)

// shapeFiles lists the serve-cold-like programs under testdata/shapes:
// medium-thickness matmul, radix sort, scan, parallel and NUMA programs
// plus an over-quota loop, all with inline initializers. They live here
// rather than in the codegen corpus, which serves as a fixed warm corpus.
func shapeFiles(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "shapes", "*.te"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) < 9 {
		tb.Fatalf("shape set too small: %d programs", len(files))
	}
	return files
}

// oracleFiles lists shapes plus the programs under testdata/oracle, which
// exist only to feed the prediction-vs-measurement oracles.
func oracleFiles(tb testing.TB) []string {
	tb.Helper()
	extra, err := filepath.Glob(filepath.Join("testdata", "oracle", "*.te"))
	if err != nil {
		tb.Fatal(err)
	}
	return append(shapeFiles(tb), extra...)
}

// Admission budgets of tcfserve's cost pass (serve.costParamsFor), and the
// step quota of the small tenant the over-quota shape is sent to; the
// server clamps the analysis just past that quota.
const (
	admitMaxSteps    = 1 << 14
	admitMaxLaneWork = 1 << 22
	overQuotaSteps   = 64
)

// admissionCase is one compiled program with the parameters the server's
// admission path would analyze it under.
type admissionCase struct {
	name string
	c    *codegen.Compiled
	p    analysis.CostParams
}

func admissionParams(name string) analysis.CostParams {
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	p.MaxSteps = admitMaxSteps
	p.MaxLaneWork = admitMaxLaneWork
	if strings.HasPrefix(name, "overquota") {
		p.MaxSteps = overQuotaSteps + 1
	}
	return p
}

func admissionCases(tb testing.TB) []admissionCase {
	tb.Helper()
	var cases []admissionCase
	for _, path := range append(corpusFiles(tb), shapeFiles(tb)...) {
		name := filepath.Base(path)
		cases = append(cases, admissionCase{name, compileCorpus(tb, path), admissionParams(name)})
	}
	return cases
}

// BenchmarkCost_Admission times the cost analyzer as tcfserve's admission
// path runs it: programs compiled once, then analysis.Cost under the
// server's budgets. One op analyzes every corpus program and shape once;
// ns/call is the mean per analysis.Cost call.
func BenchmarkCost_Admission(b *testing.B) {
	cases := admissionCases(b)
	for _, ac := range cases {
		rep := analysis.Cost(ac.c, ac.p)
		if strings.HasPrefix(ac.name, "overquota") && rep.Steps.Min <= overQuotaSteps {
			b.Fatalf("%s: steps %v do not prove the %d-step quota broken", ac.name, rep.Steps, overQuotaSteps)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ac := range cases {
			analysis.Cost(ac.c, ac.p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cases)), "ns/call")
}

// TestCostAllocs gates the allocation-lean executor: with the executor
// pool warm, an admission-path analysis allocates only its report, its
// per-module reference counts and the policy's boot-flow list. The
// ceilings are the measured counts. A pooled entry survives one garbage
// collection, so a pool in constant use stays warm through the
// measurement.
func TestCostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	ceilings := map[string]float64{
		"matmul_16.te":     3, // 256-lane registers and loads
		"radix_128x2.te":   3, // multiprefix write-back, scattered stores
		"parallel_64x8.te": 3, // split, join and recycled flows
	}
	for _, ac := range admissionCases(t) {
		ceiling, ok := ceilings[ac.name]
		if !ok {
			continue
		}
		delete(ceilings, ac.name)
		analysis.Cost(ac.c, ac.p) // warm the executor pool
		if got := testing.AllocsPerRun(50, func() { analysis.Cost(ac.c, ac.p) }); got > ceiling {
			t.Errorf("%s: %v allocs per analysis.Cost call, ceiling %v", ac.name, got, ceiling)
		}
	}
	if len(ceilings) != 0 {
		t.Fatalf("gated shapes missing: %v", ceilings)
	}
}

// TestCostPoolIsolation checks that a pooled executor carries nothing from
// one call into the next: every program's report is unchanged after
// analyses that leave wide, unknown and lost state behind (tiny value
// caps degrade registers and memory to unknown).
func TestCostPoolIsolation(t *testing.T) {
	files := append(corpusFiles(t), oracleFiles(t)...)
	progs := make([]*codegen.Compiled, len(files))
	want := make([]string, len(files))
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	for i, path := range files {
		progs[i] = compileCorpus(t, path)
		want[i] = renderFull(analysis.Cost(progs[i], p))
	}
	dirty := p
	dirty.Groups, dirty.MaxConcreteLanes, dirty.MaxTrackedWords = 2, 8, 64
	for i, c := range progs {
		for _, other := range progs {
			analysis.Cost(other, dirty)
		}
		if got := renderFull(analysis.Cost(c, p)); got != want[i] {
			t.Errorf("%s: report changed after other analyses:\n%s\nwant\n%s", filepath.Base(files[i]), got, want[i])
		}
	}
}

// TestCostConcurrent runs analyses from several goroutines at once: pooled
// executors change hands between goroutines, and no two may share one.
func TestCostConcurrent(t *testing.T) {
	files := append(corpusFiles(t), oracleFiles(t)...)
	progs := make([]*codegen.Compiled, len(files))
	want := make([]string, len(files))
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	for i, path := range files {
		progs[i] = compileCorpus(t, path)
		want[i] = renderFull(analysis.Cost(progs[i], p))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range progs {
				i := (k + w*7) % len(progs)
				if got := renderFull(analysis.Cost(progs[i], p)); got != want[i] {
					t.Errorf("%s: concurrent report differs:\n%s\nwant\n%s", filepath.Base(files[i]), got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func renderFull(rep *analysis.CostReport) string {
	return fmt.Sprintf("%s%+v %+v %+v", rep.Render(), rep.Joins, rep.FlowsCreated, rep.WriteConflicts)
}
