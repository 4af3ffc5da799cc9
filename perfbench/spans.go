package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one traced cycle share a run id; a span's parent is the
// call that caused it (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; write dumps them when the run ends. It is
// safe for concurrent use (the replay's two load goroutines share one).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setRun starts a new run id for the spans that follow.
func (r *recorder) setRun(run int) {
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// begin opens a span and returns its id (ids start at 1). A nil recorder
// records nothing, so one code path serves traced and untraced runs.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func (r *recorder) selfTimes() map[int]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	return total + curHi - curLo
}

// spansOf returns run's spans grouped by name.
func (r *recorder) spansOf(run int) map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range r.spans {
		if s.Run == run {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocCounter counts heap allocations across serial calls by MemStats
// deltas. Only serial calls give counts that repeat exactly; ReadMemStats
// stops the world, so it is kept out of every timed span.
type allocCounter struct{ ms runtime.MemStats }

// around runs fn and returns the allocations it made.
func (a *allocCounter) around(fn func()) uint64 {
	runtime.ReadMemStats(&a.ms)
	before := a.ms.Mallocs
	fn()
	runtime.ReadMemStats(&a.ms)
	return a.ms.Mallocs - before
}
