package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// is the id of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for use
// by several goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, job, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Job: job, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// rename renames span id, for calls whose layer is known only afterwards.
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// layerTimes is the self time of every call to one layer, in nanoseconds.
type layerTimes struct {
	self []float64
	sum  float64
}

func (l *layerTimes) meanUS() float64 {
	if l == nil || len(l.self) == 0 {
		return 0
	}
	return l.sum / float64(len(l.self)) / 1e3
}

// selfTimes groups span self times by name. A span's self time is its
// duration minus the durations of its children.
func (r *recorder) selfTimes() map[string]*layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTimes{}
			out[s.Name] = l
		}
		self := float64(s.End - s.Start - child[i])
		l.self = append(l.self, self)
		l.sum += self
	}
	return out
}

// total is the summed duration of every span named name.
func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return float64(t)
}

// write stores the spans as JSON lines in dir/name.
func (r *recorder) write(dir, name string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return w.Flush()
}
