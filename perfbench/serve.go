package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/serve"
)

// clients is the closed-loop client count of the serve workloads. One
// client leaves the second CPU of a 2-CPU host to the server's own
// goroutines and the garbage collector. With two clients both CPUs stay
// saturated, and a single unrelated busy thread on the host halved
// serve-warm's throughput; with one it did not move it.
const clients = 1

// request is one /run request of a workload's stream.
type request struct {
	job  *Job
	body []byte
}

func newRequest(j *Job) (*request, error) {
	type peek struct {
		Addr int64 `json:"addr"`
		N    int   `json:"n"`
	}
	body := struct {
		Name    string `json:"name"`
		Source  string `json:"source"`
		Variant string `json:"variant"`
		Backend string `json:"backend"`
		Sched   string `json:"sched"`
		Peek    []peek `json:"peek,omitempty"`
	}{Name: j.Name, Source: j.Src, Variant: j.Variant, Backend: j.Backend, Sched: "lockstep"}
	for _, seg := range j.Check {
		body.Peek = append(body.Peek, peek{seg.Addr, len(seg.Words)})
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &request{job: j, body: b}, nil
}

// traceHook is the benchmark's middleware around Server.Handler(): while a
// recorder is installed it records a serve.handler span per request, as a
// child of the client span named in the request headers.
type traceHook struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *traceHook) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	job, _ := strconv.Atoi(r.Header.Get("X-Bench-Job"))
	parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	if err != nil {
		parent = -1
	}
	id := rec.begin("serve.handler", job, parent)
	h.next.ServeHTTP(w, r)
	rec.end(id)
}

// serveBench is an in-process tcfserve behind a loopback httptest server,
// driven by closed-loop clients over a request stream.
type serveBench struct {
	srv    *serve.Server
	ts     *httptest.Server
	hook   *traceHook
	client *http.Client
	next   func(i int) (*request, error) // request i of the stream
	count  atomic.Int64                  // requests taken from the stream
}

// tenants gives the small tenant its step quota; everyone else gets the
// server defaults.
var tenants = map[string]serve.Limits{smallTenant: {MaxSteps: smallMaxSteps}}

func startServer(next func(i int) (*request, error)) *serveBench {
	srv := serve.New(serve.Options{Tenants: tenants})
	hook := &traceHook{next: srv.Handler()}
	ts := httptest.NewServer(hook)
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &serveBench{srv: srv, ts: ts, hook: hook, client: &http.Client{Transport: tr}, next: next}
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.ts.Close()
	b.srv.Drain(time.Second)
}

// run drives the clients untraced for d.
func (b *serveBench) run(d time.Duration) *tally {
	return timed(d, func(deadline time.Time) *tally { return b.drive(deadline, 0, nil) })
}

// post sends one request and decodes the reply. span is the client span
// the handler span hangs under (-1 when untraced).
func (b *serveBench) post(rq *request, job, span int) (int, *runResponse, error) {
	req, err := http.NewRequest(http.MethodPost, b.ts.URL+"/run", bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rq.job.Tenant != "" {
		req.Header.Set("X-Tenant", rq.job.Tenant)
	}
	if span >= 0 {
		req.Header.Set("X-Bench-Job", strconv.Itoa(job))
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out runResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding reply: %w", err)
	}
	return resp.StatusCode, &out, nil
}

// expectedOutcome is the outcome string tcfserve answers with each status
// the benchmark expects.
var expectedOutcome = map[int]string{
	http.StatusOK:                  "ok",
	http.StatusPreconditionFailed:  "predicted-over-quota",
	http.StatusUnprocessableEntity: "vet-rejected",
}

// verify checks one reply against its job.
func verify(j *Job, status int, resp *runResponse) error {
	if status != j.Status || resp.Outcome != expectedOutcome[j.Status] {
		return fmt.Errorf("got HTTP %d %q (%s), want %d %q", status, resp.Outcome, resp.Error, j.Status, expectedOutcome[j.Status])
	}
	if status != http.StatusOK {
		return nil
	}
	a := answerOfResponse(resp)
	return a.check(j)
}

// drive runs the closed-loop clients until deadline, or until limit
// requests were taken when limit > 0. With rec set, every request gets a
// client span and the handler span under it.
func (b *serveBench) drive(deadline time.Time, limit int, rec *recorder) *tally {
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = b.clientLoop(deadline, limit, rec)
		}(c)
	}
	wg.Wait()
	t := &tally{}
	for _, ct := range tallies {
		t.merge(ct)
	}
	return t
}

func (b *serveBench) clientLoop(deadline time.Time, limit int, rec *recorder) *tally {
	t := &tally{}
	idle := time.Now()
	for time.Now().Before(deadline) {
		i := int(b.count.Add(1) - 1)
		if limit > 0 && i >= limit {
			break
		}
		t.attempted++
		rq, err := b.next(i)
		if err != nil {
			t.fail(fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		span := -1
		start := time.Now()
		t.gap += start.Sub(idle)
		if rec != nil {
			span = rec.begin("client.request", i, -1)
		}
		status, resp, err := b.post(rq, i, span)
		if rec != nil {
			rec.end(span)
		}
		idle = time.Now()
		lat := idle.Sub(start)
		j := rq.job
		switch {
		case err != nil:
			t.fail(fmt.Sprintf("request %d (%s): %v", i, j.Name, err))
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			t.saturated++
			t.fail(fmt.Sprintf("request %d (%s): server refused load with HTTP %d %q", i, j.Name, status, resp.Outcome))
		default:
			if err := verify(j, status, resp); err != nil {
				t.fail(fmt.Sprintf("request %d (%s, %s): %v", i, j.Name, j.Backend, err))
				continue
			}
			t.addLatency(lat)
			if status == http.StatusOK {
				t.ops += j.Ops
			}
		}
	}
	return t
}

// serverCounters is the part of /metrics the benchmark reads.
type serverCounters struct {
	Outcomes map[string]int64 `json:"outcomes"`
	Pool     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"pool"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (b *serveBench) counters() (*serverCounters, error) {
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var c serverCounters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &c, nil
}

// tracedDrive is drive with client and handler spans recorded into
// run.http, and the server's cache and pool hit rates over the phase.
func (b *serveBench) tracedDrive(deadline time.Time, limit int, run *traceRun) (*tally, error) {
	run.http = newRecorder()
	before, err := b.counters()
	if err != nil {
		return nil, err
	}
	b.hook.rec.Store(run.http)
	t := b.drive(deadline, limit, run.http)
	b.hook.rec.Store(nil)
	after, err := b.counters()
	if err != nil {
		return nil, err
	}
	run.cacheHit = hitFrac(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses)
	run.poolHit = hitFrac(after.Pool.Hits-before.Pool.Hits, after.Pool.Misses-before.Pool.Misses)
	return t, nil
}

func hitFrac(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Admission-time analysis budgets and the default step quota, as tcfserve
// sets them (internal/serve: admitMaxSteps, admitMaxLaneWork and
// defaultLimits). The replay needs them to make the server's decisions.
const (
	admitMaxSteps    = 1 << 14
	admitMaxLaneWork = 1 << 22
	defaultMaxSteps  = 1 << 20
)

func quotaOf(j *Job) int64 {
	if l, ok := tenants[j.Tenant]; ok {
		return l.MaxSteps
	}
	return defaultMaxSteps
}

// admissionParams are the cost-analysis parameters tcfserve derives from a
// pooled-machine config and the tenant's step quota.
func admissionParams(cfg machine.Config, quota int64) analysis.CostParams {
	p := analysis.CostParams{
		Variant:        cfg.Variant,
		Groups:         cfg.Groups,
		ProcsPerGroup:  cfg.ProcsPerGroup,
		SharedWords:    cfg.SharedWords,
		LocalWords:     cfg.LocalWords,
		PipelineDepth:  cfg.PipelineDepth,
		MemLatencyBase: cfg.MemLatencyBase,
		VectorWidth:    cfg.VectorWidth,
		MaxSteps:       admitMaxSteps,
		MaxLaneWork:    admitMaxLaneWork,
	}
	if quota < admitMaxSteps {
		p.MaxSteps = quota + 1
	}
	return p
}

// admitted is the outcome of the replay's admission for one program.
type admitted struct {
	status int
	c      *codegen.Compiled
	rep    *analysis.CostReport
}

// replayer sends jobs through the layer functions tcfserve calls, in its
// order: lang.Parse → sema.Check → analysis.Analyze → codegen.CompileChecked
// → analysis.Cost → pool → LoadProgram → run → encode → release.
type replayer struct {
	tr   *tracer
	pool *serve.MachinePool
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, pool: serve.NewMachinePool(clients)}
}

// admit is the vet gate, compile and predictive admission.
func (r *replayer) admit(j *Job, parent int) (*admitted, error) {
	cfg, err := machineConfig(j)
	if err != nil {
		return nil, err
	}
	info, err := r.tr.frontEnd(j, parent)
	if err != nil {
		return nil, err
	}
	var ds []diag.Diagnostic
	r.tr.call("analysis.vet", j.ID, parent, func() {
		ds = analysis.Analyze(info.Prog, info, analysis.Options{File: j.Name, Discipline: mem.DisciplineCREW, Variant: cfg.Variant})
	})
	if diag.HasErrors(ds) {
		return &admitted{status: http.StatusUnprocessableEntity}, nil
	}
	c, err := r.tr.compile(j, info, parent)
	if err != nil {
		return nil, err
	}
	quota := quotaOf(j)
	rep := r.tr.cost(j, c, admissionParams(cfg, quota), parent)
	if rep.Steps.Min > quota {
		r.tr.costRejected++
		return &admitted{status: http.StatusPreconditionFailed}, nil
	}
	return &admitted{status: http.StatusOK, c: c, rep: rep}, nil
}

// execute runs an admitted job on a pooled machine, encodes the reply and
// checks the answer and the cost prediction.
func (r *replayer) execute(j *Job, a *admitted, parent int) error {
	if a.status != j.Status {
		return fmt.Errorf("replayed admission gives HTTP %d, want %d", a.status, j.Status)
	}
	if a.status != http.StatusOK {
		return nil
	}
	cfg, err := machineConfig(j)
	if err != nil {
		return err
	}
	cfg.MaxSteps = quotaOf(j)
	id := r.tr.rec.begin("machine.pool", j.ID, parent)
	lease, err := r.pool.Get(cfg)
	r.tr.rec.end(id)
	if err != nil {
		return err
	}
	if lease.Pooled {
		r.tr.rec.rename(id, "machine.reset")
	} else {
		r.tr.rec.rename(id, "machine.new")
	}
	start := time.Now()
	st, err := r.tr.execute(j, lease.M, a.c, parent)
	if err != nil {
		lease.Discard()
		return err
	}
	var ans answer
	r.tr.call("serve.encode", j.ID, parent, func() { ans = encode(j, lease.M, st, lease.Pooled, time.Since(start)) })
	if err := checkPrediction(a.rep, st); err != nil {
		lease.Release()
		return err
	}
	if st.Ops != j.Ops {
		lease.Release()
		return fmt.Errorf("run performed %d lane ops, calibration says %d", st.Ops, j.Ops)
	}
	r.tr.call("machine.reset", j.ID, parent, lease.Release)
	return ans.check(j)
}

// request replays one job end to end under a job span. A program admitted
// earlier (serve-warm's cache) passes its admission as a.
func (r *replayer) request(j *Job, a *admitted, t *tally) {
	t.attempted++
	id := r.tr.rec.begin("job", j.ID, -1)
	var err error
	if a == nil {
		a, err = r.admit(j, id)
	}
	if err == nil {
		err = r.execute(j, a, id)
	}
	r.tr.rec.end(id)
	if err != nil {
		t.fail(fmt.Sprintf("replay of job %d (%s, %s): %v", j.ID, j.Name, j.Backend, err))
	}
}

// warmBench is serve-warm: a fixed program set, compiled, costed and pooled
// before timing, so every timed request hits the compile cache, the cost
// memo and the machine pool.
type warmBench struct {
	*serveBench
	reqs []*request // program × backend
	perm []int      // seeded program order
}

func newWarm(root string, seed int64) (*warmBench, error) {
	progs, err := warmPrograms(root, seed)
	if err != nil {
		return nil, err
	}
	w := &warmBench{perm: rand.New(rand.NewSource(seed)).Perm(len(progs))}
	for i := range progs {
		if progs[i].Ops, err = calibrate(&progs[i]); err != nil {
			return nil, fmt.Errorf("calibrating: %w", err)
		}
		for _, backend := range []string{"interp", "fused"} {
			j := progs[i]
			j.Backend = backend
			rq, err := newRequest(&j)
			if err != nil {
				return nil, err
			}
			w.reqs = append(w.reqs, rq)
		}
	}
	w.serveBench = startServer(w.request)
	// Prime the compile cache, cost memo and both backends' pools with
	// every program before timing.
	t := w.drive(time.Now().Add(time.Minute), len(w.reqs), nil)
	if t.failed > 0 {
		w.close()
		return nil, fmt.Errorf("priming: %s", t.errs[0])
	}
	w.count.Store(0)
	return w, nil
}

// request i of serve-warm: programs in seeded order, each program's
// backend alternating between passes, so backends split half and half.
func (w *warmBench) request(i int) (*request, error) {
	n := len(w.perm)
	prog := w.perm[i%n]
	backend := (i + i/n) % 2
	return w.reqs[2*prog+backend], nil
}

// coldBench is serve-cold: every request carries a program no earlier
// request carried, so vet, compile and cost analysis run every time.
type coldBench struct {
	*serveBench
	seed int64
	ops  map[string]int64 // calibrated lane ops per shape
}

func newCold(seed int64) (*coldBench, error) {
	c := &coldBench{seed: seed, ops: map[string]int64{}}
	rng := rand.New(rand.NewSource(seed))
	for _, sh := range coldShapes {
		p := sh.gen(rng, true)
		j := Job{Name: sh.name, Src: p.src, Check: p.check, Variant: "tcf", Backend: "interp"}
		ops, err := calibrate(&j)
		if err != nil {
			return nil, fmt.Errorf("calibrating: %w", err)
		}
		c.ops[sh.name] = ops
	}
	// The warm-up requests come from another seed, so that no timed
	// request repeats one.
	warmup := &coldBench{seed: ^seed, ops: c.ops}
	c.serveBench = startServer(warmup.request)
	t := c.drive(time.Now().Add(time.Minute), 2*coldBlock, nil)
	if t.failed > 0 {
		c.close()
		return nil, fmt.Errorf("warm-up: %s", t.errs[0])
	}
	c.next = c.request
	c.count.Store(0)
	return c, nil
}

func (c *coldBench) job(i int) *Job {
	j := coldJob(c.seed, i)
	j.Ops = c.ops[j.Name]
	return &j
}

func (c *coldBench) request(i int) (*request, error) { return newRequest(c.job(i)) }

func (w *warmBench) trace(d time.Duration, base *tally) (*traceRun, error) {
	return w.serveBench.trace(d, base, func(r *replayer, t *tally) {
		// The server compiled and costed every program once, while priming.
		adm := make([]*admitted, len(w.perm))
		for p := range adm {
			j := w.reqs[2*p].job
			id := r.tr.rec.begin("prime", j.ID, -1)
			a, err := r.admit(j, id)
			r.tr.rec.end(id)
			if err != nil {
				t.fail(fmt.Sprintf("replayed priming of %s: %v", j.Name, err))
			}
			adm[p] = a
		}
		for i := 0; i < 2*len(w.perm); i++ {
			rq, _ := w.request(i)
			j := *rq.job
			j.ID = i
			if a := adm[w.perm[i%len(w.perm)]]; a != nil {
				r.request(&j, a, t)
			}
		}
	})
}

// coldReplay is how many serve-cold requests the traced run replays.
const coldReplay = 400

func (c *coldBench) trace(d time.Duration, base *tally) (*traceRun, error) {
	return c.serveBench.trace(d, base, func(r *replayer, t *tally) {
		for i := 0; i < coldReplay; i++ {
			r.request(c.job(i), nil, t)
		}
	})
}

// trace runs the traced HTTP phase for d, then replay.
func (b *serveBench) trace(d time.Duration, base *tally, replay func(r *replayer, t *tally)) (*traceRun, error) {
	run := &traceRun{tr: newTracer()}
	t, err := b.tracedDrive(time.Now().Add(d), 0, run)
	if err != nil {
		return nil, err
	}
	run.overhead = meanDuration(t.lat)/meanDuration(base.lat) - 1
	replay(newReplayer(run.tr), t)
	run.t = t
	return run, nil
}

func meanDuration(ds []int32) float64 {
	var s float64
	for _, d := range ds {
		s += float64(d)
	}
	return s / float64(max(len(ds), 1))
}
