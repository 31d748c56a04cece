package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one benchmark
// request share Req; a child names the span that caused it in Parent (0 for
// a request's root span). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of that interval covered by the
	// span's children (overlapping children counted once); filled by
	// SelfTimes.
	Self int64 `json:"self_ns"`
}

// Duration returns the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; they are written out once, at the end of
// the run, so recording costs a mutex and an append.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Begin opens a span starting now and returns its id for End.
func (r *Recorder) Begin(req, parent int64, name string) int64 {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: r.since(now), End: -1})
	return id
}

// End closes span id at the current time.
func (r *Recorder) End(id int64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.since(now)
}

// Record adds a span whose interval is already known and returns its id.
func (r *Recorder) Record(req, parent int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: r.since(start), End: r.since(end)})
	return id
}

// Spans returns a copy of every span recorded so far, with self times
// filled in. A span still open is reported as ending at its start.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	SelfTimes(out)
	return out
}

// SelfTimes sets every span's Self to its duration minus the union of its
// children's intervals, each clipped to the parent's interval. Children may
// overlap (parallel calls); the overlap is subtracted once. Spans must be
// indexed by ID (spans[i].ID == i+1), as a Recorder produces them.
func SelfTimes(spans []Span) {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// WriteSpans writes spans as JSON lines to path.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// byName groups span durations (in seconds) by span name.
func byName(spans []Span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.Duration().Seconds())
	}
	return out
}
