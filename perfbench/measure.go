package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts nanosecond latencies to milliseconds.
func ms(ns []int32) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	return out
}

// addLatency records one verified job's latency.
func (t *tally) addLatency(d time.Duration) {
	t.lat = append(t.lat, int32(min(d, math.MaxInt32)))
}

// goCounters is a reading of the Go runtime's cumulative allocation and CPU
// counters.
type goCounters struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

var goCounterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapSampler samples the Go heap in use every millisecond and keeps the
// peak of every one-second window.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // one per window; written by the sampler until done
}

const (
	heapMetric    = "/memory/classes/heap/objects:bytes"
	heapWindowLen = 1000 // samples per window
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var peak uint64
		for n := 1; ; n++ {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
			if n%heapWindowLen == 0 {
				h.peaks = append(h.peaks, float64(peak))
				peak = 0
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the median of the
// window peaks in bytes: the heap's typical high-water mark, which one
// late garbage collection does not move the way it moves the maximum.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// tally is the outcome of one timed phase.
type tally struct {
	attempted, failed int64
	saturated         int64   // answers that shed or refused load (429, 503)
	lat               []int32 // nanoseconds; 4 bytes a sample keeps the benchmark's own heap small
	ids               []int   // job of each latency (sim-thick)
	ops               int64   // simulated lane operations of verified jobs
	elapsed           time.Duration
	gap               time.Duration // client time spent between requests
	goBefore, goAfter goCounters
	peakHeap          float64
	errs              []string
}

const maxErrs = 5

// fail counts one failed job, keeping the first few reasons.
func (t *tally) fail(reason string) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, reason)
	}
}

// merge folds a client's tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.saturated += o.saturated
	t.lat = append(t.lat, o.lat...)
	t.ids = append(t.ids, o.ids...)
	t.ops += o.ops
	t.gap += o.gap
	for _, e := range o.errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, e)
		}
	}
}

// timed runs phase for d with the heap sampler and runtime counters around
// it, and stamps the elapsed host time.
func timed(d time.Duration, phase func(deadline time.Time) *tally) *tally {
	before := readGo()
	h := startHeapSampler()
	start := time.Now()
	t := phase(start.Add(d))
	t.elapsed = time.Since(start)
	t.peakHeap = h.finish()
	t.goBefore, t.goAfter = before, readGo()
	return t
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(t *tally, setupS float64) map[string]metric {
	secs := t.elapsed.Seconds()
	lat := ms(t.lat)
	return map[string]metric{
		"jobs_per_s":    {float64(t.attempted-t.failed) / secs, "1/s"},
		"lat_p50_ms":    {quantile(lat, 0.50), "ms"},
		"lat_p90_ms":    {quantile(lat, 0.90), "ms"},
		"lat_p99_ms":    {quantile(lat, 0.99), "ms"},
		"sim_ops_per_s": {float64(t.ops) / secs, "1/s"},
		"setup_s":       {setupS, "s"},
		"peak_heap_mb":  {t.peakHeap / (1 << 20), "MB"},
	}
}

// goLayer derives the Go runtime's per-layer metrics from a phase.
func goLayer(t *tally) map[string]metric {
	jobs := float64(max(t.attempted, 1))
	cpu := t.goAfter.totalCPU - t.goBefore.totalCPU
	gcFrac := 0.0
	if cpu > 0 {
		gcFrac = (t.goAfter.gcCPU - t.goBefore.gcCPU) / cpu
	}
	return map[string]metric{
		"go.alloc_bytes_per_job": {float64(t.goAfter.allocBytes-t.goBefore.allocBytes) / jobs, "B"},
		"go.mallocs_per_job":     {float64(t.goAfter.mallocs-t.goBefore.mallocs) / jobs, "count"},
		"go.gc_cpu_frac":         {gcFrac, "frac"},
	}
}

// failFrac is failed / attempted.
func failFrac(t *tally) metric {
	return metric{float64(t.failed) / float64(max(t.attempted, 1)), "frac"}
}
