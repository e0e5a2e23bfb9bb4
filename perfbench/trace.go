package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one job share Job; Parent is the
// enclosing span's ID (0 for a job's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced passes pay one nil check per call site.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID with the function that closes
// it; the closer returns the span's duration.
func (l *spanLog) begin(job, parent int, name string) (int, func() time.Duration) {
	start := time.Now()
	if l == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
	return id, func() time.Duration {
		end := time.Now()
		l.mu.Lock()
		l.spans[id-1].End = end.Sub(l.origin).Nanoseconds()
		l.mu.Unlock()
		return end.Sub(start)
	}
}

// len returns the number of spans recorded.
func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// total sums the durations of all spans with the given name.
func (l *spanLog) total(name string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var d int64
	for _, s := range l.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("encode span: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// armCounter is an obs.Sink that keeps only the probed-arm histogram of
// a repair's online phase: arm a composes a+1 pool mutations. The layer
// replay draws its phase-2 compositions from this histogram, so Apply
// and the interpreter are costed at the composition sizes the search
// really probed.
type armCounter struct{ counts map[int]int64 }

func newArmCounter() *armCounter { return &armCounter{counts: map[int]int64{}} }

func (a *armCounter) Emit(e obs.Event) {
	if e.Type == obs.TypeProbe {
		a.counts[e.Arm]++
	}
}

func (a *armCounter) Close() error { return nil }
