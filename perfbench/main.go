// Command perfbench is the repository's source-to-answer benchmark. Given a
// workload and a seed it generates the workload's tcf-e jobs, runs them
// through the public APIs of the simulator and the execution server,
// checks every answer against a Go reference, and prints each metric with
// its unit. The last line of standard output is the result object.
//
//	perfbench --workload sim-thick --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"tcfpram/internal/machine"
)

// bench is one workload, set up and ready to time.
type bench interface {
	// run drives the workload untraced for d.
	run(d time.Duration) *tally
	// trace runs the traced phases; base is an untraced phase to compare
	// the tracing overhead against.
	trace(d time.Duration, base *tally) (*traceRun, error)
	close()
}

// workload names a workload and sets it up. BENCHMARK.json and README.md
// record why each exists.
type workload struct {
	name    string
	clients int // closed-loop clients
	setup   func(root string, seed int64) (bench, error)
}

var workloads = []workload{
	{"sim-thick", 1, func(_ string, seed int64) (bench, error) { return newSim(seed) }},
	{"serve-warm", clients, func(root string, seed int64) (bench, error) { return newWarm(root, seed) }},
	{"serve-cold", clients, func(_ string, seed int64) (bench, error) { return newCold(seed) }},
}

// setupReps is how often a run sets its workload up; setup_s is the median.
const setupReps = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: sim-thick, serve-warm or serve-cold")
	seed := flag.Int64("seed", 1, "seed of the generated jobs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root (holds the tcf-e corpus)")
	traceDir := flag.String("trace-dir", ".bench_build/perfbench-trace", "where a traced run writes its spans")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	labels := runLabels(w, *seed, *seconds)
	if line, err := json.Marshal(map[string]any{"labels": labels}); err == nil {
		fmt.Println(string(line))
	}

	b, setupS, err := setUp(w, *root, *seed)
	if err != nil {
		return err
	}
	defer b.close()

	d := time.Duration(*seconds) * time.Second
	var res *result
	if *traceFlag == 0 {
		t := b.run(d)
		res = resultOf(t, endToEnd(t, setupS))
	} else {
		// Half the time untraced, as the base of the overhead, half traced.
		base := b.run(d / 2)
		tr, err := b.trace(d/2, base)
		if err != nil {
			return err
		}
		m := tr.metrics()
		for k, v := range goLayer(base) {
			m[k] = v
		}
		all := &tally{}
		all.merge(base)
		all.merge(tr.t)
		// The load generator's pace is judged on the untraced half.
		all.elapsed, all.gap = base.elapsed, base.gap
		res = resultOf(all, m)
		m["fail_frac"] = failFrac(all)
		if err := tr.write(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed)); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("run failed; see the reasons above")
	}
	return nil
}

// setUp builds the workload setupReps times and keeps the last one.
func setUp(w *workload, root string, seed int64) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = w.setup(root, seed); err != nil {
			return nil, 0, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, median(times), nil
}

// resultOf judges a run: correct only if every job verified and the load
// generator was neither refused nor late. Reasons go to standard error.
func resultOf(t *tally, m map[string]metric) *result {
	res := &result{Correct: true, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	if t.attempted == 0 {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: no job was attempted")
	}
	if t.failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d jobs failed; first reasons:\n  %s\n",
			t.failed, t.attempted, strings.Join(t.errs, "\n  "))
	}
	if t.saturated > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: the server refused %d requests (429/503): the run measured load shedding, not the program\n", t.saturated)
	}
	if late := lateFrac(t); late > maxLateFrac {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: clients spent %.0f%% of the run between requests: the load generator, not the server, set the pace\n", 100*late)
	}
	return res
}

// maxLateFrac bounds the share of client time spent generating and
// checking requests rather than waiting for answers.
const maxLateFrac = 0.25

func lateFrac(t *tally) float64 {
	if t.elapsed == 0 {
		return 0
	}
	return t.gap.Seconds() / (t.elapsed.Seconds() * clients)
}

// runLabels are the configuration a run was measured under; runs with
// different labels (other than the seed) must not be compared.
func runLabels(w *workload, seed int64, seconds int) map[string]any {
	return map[string]any{
		"workload":    w.name,
		"seed":        seed,
		"seconds":     seconds,
		"clients":     w.clients,
		"backend_mix": "interp:fused 1:1",
		"sched":       "lockstep",
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":         cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// traceRun is what a traced run measured.
type traceRun struct {
	tr    *tracer // the workload's own path, one span per layer call
	probe *tracer // sim-thick only: layers its own path never calls
	http  *recorder
	t     *tally

	cacheHit, poolHit float64
	overhead          float64
}

// metrics derives the per-layer metrics. A layer's figures come from the
// workload's own path when the layer is on it, otherwise from the probe.
func (r *traceRun) metrics() map[string]metric {
	own := r.tr.rec.selfTimes()
	alt := map[string]*layerTimes{}
	if r.probe != nil {
		alt = r.probe.rec.selfTimes()
	}
	layer := func(name string) *layerTimes {
		if l := own[name]; l != nil {
			return l
		}
		return alt[name]
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(backend string) metric {
		t := r.tr
		if t.engineOps[backend] == 0 && r.probe != nil {
			t = r.probe
		}
		return metric{frac(t.engineNS[backend], float64(t.engineOps[backend])), "ns"}
	}
	costTr := r.tr
	if costTr.costCalls == 0 && r.probe != nil {
		costTr = r.probe
	}
	costP99 := 0.0
	if c := layer("analysis.cost"); c != nil {
		costP99 = quantile(c.self, 0.99) / 1e3
	}
	jobNS := r.tr.rec.total("job")
	runNS := r.tr.rec.total("engine.run")
	http := r.http.selfTimes()
	s := r.tr.sim
	m := map[string]metric{
		"analysis.cost_p99_us":         {costP99, "us"},
		"analysis.cost_exact_frac":     {frac(float64(costTr.costResolved), float64(costTr.costCalls)), "frac"},
		"analysis.cost_reject_frac":    {frac(float64(costTr.costRejected), float64(costTr.costCalls)), "frac"},
		"engine.interp.ns_per_lane_op": perOp("interp"),
		"engine.fused.ns_per_lane_op":  perOp("fused"),
		"engine.ns_per_step":           {frac(runNS, float64(s.steps)), "ns"},
		"engine.step_p99_us":           {quantile(r.tr.stepNS, 0.99) / 1e3, "us"},
		"engine.run_share":             {frac(runNS, jobNS), "frac"},
		"serve.handler_us":             {http["serve.handler"].meanUS(), "us"},
		"serve.transport_us":           {http["client.request"].meanUS(), "us"},
		"serve.cache_hit_frac":         {r.cacheHit, "frac"},
		"serve.pool_hit_frac":          {r.poolHit, "frac"},
		"sim.steps":                    {float64(s.steps), "count"},
		"sim.cycles":                   {float64(s.cycles), "count"},
		"sim.lane_ops":                 {float64(s.laneOps), "count"},
		"sim.shared_refs":              {float64(s.sharedRefs), "count"},
		"sim.multiop_refs":             {float64(s.multiopRefs), "count"},
		"trace.unattributed_frac":      {frac(layer("job").sum, jobNS), "frac"},
		"trace.overhead_frac":          {r.overhead, "frac"},
	}
	for _, l := range []string{"lang.parse", "sema.check", "analysis.vet", "codegen.compile",
		"analysis.cost", "machine.new", "machine.reset", "machine.load", "serve.encode"} {
		m[l+"_us"] = metric{layer(l).meanUS(), "us"}
	}
	for i := range s.stage {
		m["sim.stage."+machine.Stage(i).String()+"_cycles"] = metric{float64(s.stage[i]), "count"}
	}
	return m
}

// write stores the traced run's spans under dir.
func (r *traceRun) write(dir, name string) error {
	recs := map[string]*recorder{"layers": r.tr.rec, "http": r.http}
	if r.probe != nil {
		recs["probe"] = r.probe.rec
	}
	for kind, rec := range recs {
		if err := rec.write(dir, name+"-"+kind+".jsonl"); err != nil {
			return fmt.Errorf("writing %s spans: %w", kind, err)
		}
	}
	return nil
}
