package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"perfxplain/bench/result"
)

// span is one timed call into a layer. Spans of one question share its
// index; Parent is the ID of the span that caused this one (0 = none).
// Counts are the work measured at the same boundary.
type span struct {
	ID       int                `json:"id"`
	Name     string             `json:"name"`
	Parent   int                `json:"parent"`
	Question int                `json:"question"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans in memory around the benchmark's own calls into
// each package; the replay is sequential, so it needs no lock. Nothing
// is written until the run is over.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noQuestion is the Question of spans that serve no single question.
const noQuestion = -1

// time runs f inside a span and returns the span's ID and duration.
func (t *tracer) time(name string, parent, question int, f func()) (int, time.Duration) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Question: question})
	start := time.Now()
	f()
	end := time.Now()
	s := &t.spans[id-1]
	s.StartNS, s.EndNS = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	return id, end.Sub(start)
}

// count attaches a work count to a finished span.
func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// ms returns the durations, in milliseconds, of every span called name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// write stores the envelope as the first line and one span per line
// after it.
func (t *tracer) write(path string, env result.Envelope) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(env)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
