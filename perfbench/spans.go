package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one traced pass share Run; Parent is the enclosing
// span's ID (0 for the workload root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// tracer keeps a traced pass's spans in memory. A nil *tracer records
// nothing, so untraced passes pay only a nil check per call.
type tracer struct {
	run    string
	origin time.Time
	spans  []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		StartS: time.Since(t.origin).Seconds(),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id < 1 || id > len(t.spans) {
		return
	}
	t.spans[id-1].EndS = time.Since(t.origin).Seconds()
}

// add records an already-finished span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		StartS: start.Sub(t.origin).Seconds(), EndS: end.Sub(t.origin).Seconds(),
	})
}

// writeSpans writes one JSON object per span to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	return path, f.Close()
}
