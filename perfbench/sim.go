package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"tcfpram/internal/machine"
)

// simBench is sim-thick: long, thick jobs run one after another on the
// library path, so the step engine does almost all the work.
type simBench struct {
	seed int64
	jobs []Job
}

func newSim(seed int64) (*simBench, error) {
	s := &simBench{seed: seed, jobs: simJobs(seed)}
	// Warm up every shape once before timing.
	seen := map[string]bool{}
	for i := range s.jobs {
		j := &s.jobs[i]
		if seen[j.Name] {
			continue
		}
		seen[j.Name] = true
		if _, err := calibrate(j); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *simBench) close() {}

// run cycles through the job list until the deadline.
func (s *simBench) run(d time.Duration) *tally {
	return timed(d, func(deadline time.Time) *tally {
		t := &tally{}
		for i := 0; time.Now().Before(deadline); i++ {
			j := &s.jobs[i%len(s.jobs)]
			t.attempted++
			start := time.Now()
			st, a, err := runLibrary(j)
			lat := time.Since(start)
			if err == nil {
				err = a.check(j)
			}
			if err != nil {
				t.fail(fmt.Sprintf("job %d (%s, %s, %s): %v", j.ID, j.Name, j.Variant, j.Backend, err))
				continue
			}
			t.addLatency(lat)
			t.ids = append(t.ids, j.ID)
			t.ops += st.Ops
		}
		return t
	})
}

// trace replays the whole job list once through the layers the library
// path calls, then probes the layers sim-thick never calls (see runProbe).
func (s *simBench) trace(_ time.Duration, base *tally) (*traceRun, error) {
	tr := newTracer()
	t := &tally{}
	for i := range s.jobs {
		s.traceJob(tr, &s.jobs[i], t)
	}
	run := &traceRun{tr: tr, t: t, overhead: simOverhead(tr.rec, base)}
	if err := runProbe(s.seed, run); err != nil {
		return nil, err
	}
	return run, nil
}

// traceJob is runLibrary with one span per layer call.
func (s *simBench) traceJob(tr *tracer, j *Job, t *tally) {
	t.attempted++
	id := tr.rec.begin("job", j.ID, -1)
	err := func() error {
		cfg, err := machineConfig(j)
		if err != nil {
			return err
		}
		info, err := tr.frontEnd(j, id)
		if err != nil {
			return err
		}
		c, err := tr.compile(j, info, id)
		if err != nil {
			return err
		}
		var m *machine.Machine
		tr.call("machine.new", j.ID, id, func() { m, err = machine.New(cfg) })
		if err != nil {
			return err
		}
		if _, err := tr.execute(j, m, c, id); err != nil {
			return err
		}
		var a answer
		tr.call("results.read", j.ID, id, func() { a = answerOf(j, m) })
		return a.check(j)
	}()
	tr.rec.end(id)
	if err != nil {
		t.fail(fmt.Sprintf("traced job %d (%s): %v", j.ID, j.Name, err))
	}
}

// simOverhead compares each traced job with the mean untraced latency of
// the same job.
func simOverhead(rec *recorder, base *tally) float64 {
	sum := map[int]float64{}
	n := map[int]int{}
	for i, id := range base.ids {
		sum[id] += float64(base.lat[i])
		n[id]++
	}
	var traced, untraced float64
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, sp := range rec.spans {
		if sp.Name != "job" || n[sp.Job] == 0 {
			continue
		}
		traced += float64(sp.End - sp.Start)
		untraced += sum[sp.Job] / float64(n[sp.Job])
	}
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// runProbe measures, for sim-thick, the layers its own path never calls:
// it sends one inline-input program of every shape, on each backend,
// through an in-process tcfserve with client and handler spans, then
// replays the same programs in the server's order on a tracer of its own,
// which supplies the layers missing from run.tr.
func runProbe(seed int64, run *traceRun) error {
	rng := rand.New(rand.NewSource(seed))
	var jobs []*Job
	var reqs []*request
	for _, sh := range simShapes {
		p := sh.gen(rng, true)
		for _, backend := range []string{"interp", "fused"} {
			j := &Job{ID: len(jobs), Name: sh.name, Src: p.src, Check: p.check,
				Variant: "tcf", Backend: backend, Status: http.StatusOK}
			ops, err := calibrate(j)
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			j.Ops = ops
			rq, err := newRequest(j)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
			reqs = append(reqs, rq)
		}
	}
	b := startServer(func(i int) (*request, error) { return reqs[i], nil })
	defer b.close()
	t, err := b.tracedDrive(time.Now().Add(time.Minute), len(reqs), run)
	if err != nil {
		return err
	}
	run.probe = newTracer()
	r := newReplayer(run.probe)
	for _, j := range jobs {
		r.request(j, nil, t)
	}
	run.t.merge(t)
	return nil
}
