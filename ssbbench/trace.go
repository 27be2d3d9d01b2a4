package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	ms "morphstore"
)

// span is one timed call into a layer, or one operator of a traced Execute.
// Spans of one query execution share Query (the SSB query id) and hang off
// that execution's "execute" span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Query  string        `json:"query,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays only the nil checks.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add stores a finished span and returns its id (-1 on a nil recorder).
func (r *recorder) add(name, query string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Query: query,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// reserve allocates the id of a span whose callees finish before it does;
// finish fills it in.
func (r *recorder) reserve(name, query string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.add(name, query, parent, now, now)
}

// finish sets the interval of a reserved span.
func (r *recorder) finish(id int, start, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Start, r.spans[id].End = start.Sub(r.t0), end.Sub(r.t0)
}

// timed runs f, records it as a span and returns its duration and error.
func (r *recorder) timed(name, query string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	r.add(name, query, parent, start, end)
	return end.Sub(start), err
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			s, e := max(k.Start, p.Start), min(k.End, p.End)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		covered += curE - curS
		p.Self = p.End - p.Start - covered
	}
}

// write computes self times and writes every span, one JSON object per
// line, after a first line holding the run header.
func (r *recorder) write(path string, hdr header) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		f.Close()
		return err
	}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// opTracer turns the engine's per-operator trace callbacks of one Execute
// call into child spans of that call's "execute" span.
type opTracer struct {
	r      *recorder
	parent int
	query  string

	mu    sync.Mutex
	begun map[int]time.Time
}

func (t *opTracer) Begin(s ms.Span, at time.Time) {
	if s.Node < 0 {
		return
	}
	t.mu.Lock()
	t.begun[s.Node] = at
	t.mu.Unlock()
}

func (t *opTracer) End(s ms.Span, at time.Time, _ ms.NodeStats) {
	if s.Node < 0 {
		return
	}
	t.mu.Lock()
	start, ok := t.begun[s.Node]
	t.mu.Unlock()
	if ok {
		t.r.add("op:"+s.Op, t.query, t.parent, start, at)
	}
}

func (t *opTracer) Event(ms.Span, time.Time, ms.TraceEvent) {}
