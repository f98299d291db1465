package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the harness around the call (spans inside the program are a later
// change). Spans of one operation share Op, the index of its root.
// Layer and Name index the tracer's table of strings: a span without
// pointers costs the garbage collector nothing to keep, and a traced
// query_mix run keeps half a million.
type span struct {
	Layer, Name uint8
	Start, End  int64 // ns since the tracer was made
	Parent      int32 // index of the span that caused this one; -1 for a root
	Op          int32
	Track       int32 // generator goroutine the operation belongs to
}

// tracer is the in-memory span recorder of a traced run. A nil tracer
// records nothing, so workloads call it unconditionally and the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	names []string // layer and span names, indexed by span.Layer and span.Name
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// intern returns s's index in t.names; t.mu is held. The table holds a
// dozen strings, so a scan beats a map.
func (t *tracer) intern(s string) uint8 {
	for i, n := range t.names {
		if n == s {
			return uint8(i)
		}
	}
	t.names = append(t.names, s)
	return uint8(len(t.names) - 1)
}

// root opens an operation's first span on a generator track.
func (t *tracer) root(track int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Layer: t.intern(layer), Name: t.intern(name), Start: now, Parent: -1, Op: int32(i), Track: int32(track)})
	t.mu.Unlock()
	return i
}

// child opens a span caused by parent; a negative parent (a nil-tracer
// handle crossing a process boundary) records nothing.
func (t *tracer) child(parent int, layer, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	i := len(t.spans)
	p := t.spans[parent]
	t.spans = append(t.spans, span{Layer: t.intern(layer), Name: t.intern(name), Start: now, Parent: int32(parent), Op: p.Op, Track: p.Track})
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// traceSummary is what a traced run reduces to.
type traceSummary struct {
	// Self is each layer's self time: its spans' durations minus the
	// part of each that its child spans cover.
	Self map[string]time.Duration
	// Wall is the traced wall summed over tracks: per track, first root
	// start to last root end.
	Wall time.Duration
}

func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	type extent struct{ lo, hi int64 }
	tracks := map[int32]*extent{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
			continue
		}
		if e := tracks[s.Track]; e == nil {
			tracks[s.Track] = &extent{s.Start, s.End}
		} else {
			e.lo = min(e.lo, s.Start)
			e.hi = max(e.hi, s.End)
		}
	}
	sum := traceSummary{Self: map[string]time.Duration{}}
	for i, s := range t.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		sum.Self[t.names[s.Layer]] += time.Duration(s.End - s.Start - covered)
	}
	for _, e := range tracks {
		sum.Wall += time.Duration(e.hi - e.lo)
	}
	return sum
}

// write dumps the spans as JSON, names spelled out.
func (t *tracer) write(path string) error {
	type jsonSpan struct {
		Layer  string `json:"layer"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Track  int32  `json:"track"`
	}
	t.mu.Lock()
	out := make([]jsonSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = jsonSpan{t.names[s.Layer], t.names[s.Name], s.Start, s.End, s.Parent, s.Op, s.Track}
	}
	t.mu.Unlock()
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
