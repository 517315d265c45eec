package main

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"videodrift/internal/dataset"
	"videodrift/internal/ingest"
	"videodrift/internal/vidsim"
)

// Stream seed schedule of cmd/driftserve's self-feed: camera i starts
// at seed + i·camSeedStep and lap L adds L·lapSeedStep.
const (
	camSeedStep = 104729
	lapSeedStep = 7907
)

// source generates one camera's frames lazily, lap by lap, so a run
// never holds more than the frame being sent. The same (dataset, seed,
// camera, scripted) always yields the same frames.
type source struct {
	ds       *dataset.Dataset
	seed     int64 // stream seed of lap 0
	scripted bool  // BDD lap stream; otherwise one endless condition
	lap      int
	s        *vidsim.Stream
	n        int   // frames produced so far
	drifts   []int // scripted drift points, as indices into this source
}

func newSource(ds *dataset.Dataset, seed int64, cam int, scripted bool) *source {
	src := &source{ds: ds, seed: seed + int64(cam)*camSeedStep, scripted: scripted}
	src.startLap()
	return src
}

func (src *source) startLap() {
	seed := src.seed + int64(src.lap)*lapSeedStep
	if !src.scripted {
		// The deployed model's own condition (the registry's first entry),
		// without end.
		src.s = vidsim.NewStream(src.ds.W, src.ds.H, seed,
			vidsim.Segment{Cond: src.ds.Sequences[0], Length: math.MaxInt32})
		return
	}
	lapDS := *src.ds
	lapDS.Seed = seed
	src.s = lapDS.Stream()
	for _, p := range src.s.DriftPoints() {
		src.drifts = append(src.drifts, src.n+p)
	}
}

func (src *source) next() vidsim.Frame {
	f, ok := src.s.Next()
	for !ok {
		src.lap++
		src.startLap()
		f, ok = src.s.Next()
	}
	src.n++
	return f
}

// camera is one load-generator connection: one goroutine, one tenant,
// one ingest.Client. Its per-frame records are indexed by sequence
// number and hold nanoseconds since the run's time base; seq 0 is the
// attach frame sent before timing starts. due/start/ack are written by
// the camera's goroutine, event/pumpStart by the pump goroutine; they
// are read only after both have stopped.
type camera struct {
	idx    int
	tenant string
	src    *source
	client *ingest.Client

	due, start, ack  []int64
	event, pumpStart []int64
	sent             int   // frames acknowledged (next seq to send)
	fixedEnd         int   // first seq of the saturation phase
	sendErr          error // first Send failure; the camera stops on it
	marked           int   // frames the pump goroutine has stamped
	spans            []span
}

func newCamera(idx int, src *source, capacity int) *camera {
	return &camera{
		idx:       idx,
		tenant:    tenantName(idx),
		src:       src,
		due:       make([]int64, capacity),
		start:     make([]int64, capacity),
		ack:       make([]int64, capacity),
		event:     make([]int64, capacity),
		pumpStart: make([]int64, capacity),
	}
}

func tenantName(i int) string { return "cam" + string(rune('0'+i)) }

// clock is the run's monotonic time base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// send offers the camera's next frame, due at the given time, and
// records its timing. It reports false when the camera must stop.
// offered counts timed frames (nil for the attach frame).
func (c *camera) send(clk clock, due int64, offered *atomic.Int64, trc *tracing) bool {
	if c.sendErr != nil || c.sent >= len(c.due) {
		return false
	}
	f := c.src.next()
	if wait := due - clk.now(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	if offered != nil {
		offered.Add(1)
	}
	seq := c.sent
	c.due[seq] = due
	c.start[seq] = clk.now()
	if err := c.client.Send(f); err != nil {
		c.sendErr = err
		return false
	}
	c.ack[seq] = clk.now()
	c.sent++
	if trc.active(c.start[seq]) {
		c.spans = append(c.spans, span{
			Name: "ingest.send", Trace: c.tenant + ":" + strconv.Itoa(seq), Parent: -1,
			Start: c.start[seq], End: c.ack[seq],
		})
	}
	return true
}

// runFixed offers frames open-loop at rate frames/s from phase start
// until end: frame k of the phase is due at start + k/rate, whether or
// not earlier frames have been acknowledged.
func (c *camera) runFixed(clk clock, start, end int64, rate float64, offered *atomic.Int64, trc *tracing) {
	for k := 0; ; k++ {
		due := start + int64(float64(k)*1e9/rate)
		if due >= end || !c.send(clk, due, offered, trc) {
			break
		}
	}
	c.fixedEnd = c.sent
}

// runSaturation sends each frame as soon as the previous one was
// acknowledged (closed loop) until end; the client honours NACK
// retry-after hints itself.
func (c *camera) runSaturation(clk clock, end int64, offered *atomic.Int64, trc *tracing) {
	for {
		now := clk.now()
		if now >= end || !c.send(clk, now, offered, trc) {
			break
		}
	}
}
