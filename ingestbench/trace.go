package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// span is one timed call the harness made into a layer. Spans stay in
// memory and are written out when the run ends.
type span struct {
	ID     int      `json:"id"`
	Name   string   `json:"name"`
	Trace  string   `json:"trace,omitempty"` // camera:seq for ingest.send
	Parent int      `json:"parent"`          // -1 for a root span
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Links  []string `json:"links,omitempty"` // frames an ingest.pump completed, camera:first-last
}

// tracing records the traced run's spans. A nil *tracing (untraced
// run) records nothing. In the fixed-rate phase it records spans only
// in the even windows (see windows.go); comparing the CPU per frame of
// even and odd windows gives the tracing overhead within one run.
type tracing struct {
	// winStart and winEnd bound the fixed-rate phase; spans outside it
	// are always recorded.
	winStart, winEnd atomic.Int64
	pumpSpans        []span // written by the pump goroutine
}

func newTracing(on bool) *tracing {
	if !on {
		return nil
	}
	return &tracing{}
}

// active reports whether a span starting at time at is recorded.
func (t *tracing) active(at int64) bool {
	if t == nil {
		return false
	}
	start, end := t.winStart.Load(), t.winEnd.Load()
	if at < start || at >= end {
		return true
	}
	return (at-start)/int64(window)%2 == 0
}

func (t *tracing) pump(p pumpRec, links []string) {
	if !t.active(p.start) {
		return
	}
	t.pumpSpans = append(t.pumpSpans, span{Name: "ingest.pump", Parent: -1, Start: p.start, End: p.end, Links: links})
}

// setWindows marks the fixed-rate phase [start, end) whose windows
// alternate between recording spans and not.
func (t *tracing) setWindows(start, end int64) {
	if t == nil {
		return
	}
	t.winEnd.Store(end)
	t.winStart.Store(start)
}

// overheadMicros is the median CPU per frame of the windows that
// recorded spans minus that of the windows that did not, in µs.
func (t *tracing) overheadMicros(ws []cpuWindow) float64 {
	var on, off []float64
	for i, w := range ws {
		if w.frames == 0 {
			continue
		}
		if i%2 == 0 {
			on = append(on, w.perFrame())
		} else {
			off = append(off, w.perFrame())
		}
	}
	return median(on) - median(off)
}

// writeSpans writes the run's spans as JSON lines, numbering them from
// 1 in order; the first group must be replicationSpans' output, whose
// parent references assume that numbering.
func writeSpans(path string, groups ...[]span) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, g := range groups {
		for _, s := range g {
			n++
			s.ID = n
			if err := enc.Encode(s); err != nil {
				f.Close()
				return n, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// replicationSpans turns the cycle and capture records into spans:
// replica.cycle i gets ID i+1 and parents the store.capture it
// requested.
func replicationSpans(cycles []cycleRec, captures []captureRec) []span {
	var out []span
	for _, c := range cycles {
		out = append(out, span{Name: "replica.cycle", Parent: -1, Start: c.start, End: c.end})
	}
	for _, c := range captures {
		out = append(out, span{Name: "store.capture", Parent: c.parent + 1, Start: c.start, End: c.end})
	}
	return out
}
