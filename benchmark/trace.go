package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder is the benchmark's own tracer: spans are recorded from the
// benchmark's files around calls into each layer, held in memory, and
// written once at exit. A nil recorder records nothing, which is how the
// untraced (end-to-end) runs execute the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []obs.Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// Rows of the trace (Chrome trace thread ids).
const (
	rowSetup  = 1
	rowClient = 10 // + client index
	rowLayers = 20
)

// emit records one finished span. op identifies the request / sweep / frame
// the span belongs to; parent names the span that caused it ("" for roots).
func (r *recorder) emit(name, parent string, row int, op int, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	sp := obs.Span{
		Name: name, Cat: "bench", PID: obs.PIDWall, TID: row,
		Start: start.Sub(r.epoch).Microseconds(), Dur: dur.Microseconds(),
		Args: []obs.Arg{obs.A("op", op), obs.A("parent", parent)},
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// timed runs fn and records it as one span; it returns fn's duration in ms.
func (r *recorder) timed(name, parent string, row, op int, fn func()) float64 {
	start := time.Now()
	fn()
	dur := time.Since(start)
	r.emit(name, parent, row, op, start, dur)
	return ms(dur)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// write dumps the spans as Chrome trace JSON (loadable in Perfetto).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := map[obs.Thread]string{
		{PID: obs.PIDWall, TID: rowSetup}:      "setup",
		{PID: obs.PIDWall, TID: rowClient}:     "client 0",
		{PID: obs.PIDWall, TID: rowClient + 1}: "client 1",
		{PID: obs.PIDWall, TID: rowLayers}:     "layer replay",
	}
	if err := obs.WriteChromeTrace(f, r.spans, names); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
