package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one iteration share
// Iter; Parent is the id of the enclosing span (-1 for the iteration's
// root).
type span struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"`
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs measure with spans off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. Engine pool workers call it
// concurrently.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, StartS: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].EndS = now
	t.mu.Unlock()
}

// nextIter starts a new iteration; spans opened from here on carry its
// number.
func (t *tracer) nextIter() {
	t.mu.Lock()
	t.iter++
	t.mu.Unlock()
}

// perIter returns, for each iteration, the summed duration of every span
// with each name.
func (t *tracer) perIter() []map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []map[string]float64
	for _, s := range t.spans {
		for len(out) <= s.Iter {
			out = append(out, map[string]float64{})
		}
		out[s.Iter][s.Name] += s.EndS - s.StartS
	}
	return out
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
