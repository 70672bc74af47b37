package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work around a call
// into the system: name, start, end (wall ns since the recorder was
// created), the span that caused it, and the run it belongs to.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 = root
	Run     string           `json:"run"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, which is how timed reps run.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNs = time.Since(r.t0).Nanoseconds()
}

func (r *recorder) attr(id int, key string, v int64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

func (r *recorder) writeFile(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
