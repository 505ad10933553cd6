package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Trace groups the spans of one pass or session;
// Parent is the span that caused this one (0 for a trace's root).
type span struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        time.Time
}

// layer is the module a span's name belongs to: the text before its
// first dot ("store.open" → "store").
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory until the benchmark writes them out at
// exit. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site. Methods are safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return now.Sub(t.spans[id-1].Start)
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(trace, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children may overlap each other
// (parallel lease holders under one pass); their union is subtracted
// once, clipped to the parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		self := s.End.Sub(s.Start) - covered(s.Start, s.End, children[s.ID])
		out[s.layer()] += self
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [start, end].
func covered(start, end time.Time, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes spans as JSON lines, times in microseconds since
// the first span started.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Trace   int64  `json:"trace"`
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent,omitempty"`
			Name    string `json:"name"`
			StartUs int64  `json:"start_us"`
			EndUs   int64  `json:"end_us"`
		}{s.Trace, s.ID, s.Parent, s.Name, s.Start.Sub(t0).Microseconds(), s.End.Sub(t0).Microseconds()}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
