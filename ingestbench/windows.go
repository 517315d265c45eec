package main

import "time"

// The fixed-rate phase is measured in windows. A selection that ends in
// training a new model stalls the serial pump, and with it every
// tenant, for about half a second. How many trainings a run holds
// depends on its seed (0 to 13 in 18 s of traffic), so figures taken
// over the whole phase swing from seed to seed far more than a
// regression gate can bear. The end-to-end CPU and latency figures are
// therefore taken over the phase's clean windows only: a window is
// clean when no Router.Pump call that trained a model overlapped it or
// the window before it, into which the catch-up after the stall spills.
// Which windows are clean depends on the trainings, not on how long
// they take, so a faster or slower training moves no window between
// the sets. The stalls show in the whole-phase figures and the
// core.train_* figures of the traced run.
const window = 500 * time.Millisecond

// cpuWindow is one window's process CPU and frames processed.
type cpuWindow struct{ cpu, frames int64 }

func (w cpuWindow) perFrame() float64 { return float64(w.cpu) / 1e3 / float64(w.frames) }

// cpuSampler samples process CPU and frames processed at every window
// boundary of [start, end).
type cpuSampler struct {
	stop    chan struct{}
	done    chan struct{}
	windows []cpuWindow // written by the sampling goroutine
}

func sampleWindows(st *stack, start, end int64) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var prevCPU, prevFrames int64
		for k := 0; ; k++ {
			at := start + int64(k)*int64(window)
			if at > end {
				return
			}
			timer := time.NewTimer(time.Duration(at - st.clk.now()))
			select {
			case <-s.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
			cpu, frames := cpuNanos(), st.processed.Load()
			if k > 0 {
				s.windows = append(s.windows, cpuWindow{cpu: cpu - prevCPU, frames: frames - prevFrames})
			}
			prevCPU, prevFrames = cpu, frames
		}
	}()
	return s
}

// close stops sampling and returns the completed windows.
func (s *cpuSampler) close() []cpuWindow {
	close(s.stop)
	<-s.done
	return s.windows
}

// cleanWindows reports, for each of the n windows from start, whether
// no training pump overlapped it or the window before, and how many
// are clean. When none is, every window counts as clean,
// so that a run stalled throughout still reports its figures.
func cleanWindows(pumps []pumpRec, start int64, n int) ([]bool, int) {
	clean := make([]bool, n)
	for i := range clean {
		clean[i] = true
	}
	for _, p := range pumps {
		if !p.trained || p.end < start {
			continue
		}
		first := max((p.start-start)/int64(window), 0)
		last := (p.end-start)/int64(window) + 1 // the catch-up window
		for w := first; w <= last && w < int64(n); w++ {
			clean[w] = false
		}
	}
	count := 0
	for _, c := range clean {
		if c {
			count++
		}
	}
	if count == 0 {
		for i := range clean {
			clean[i] = true
		}
	}
	return clean, count
}

// cleanCPUPerFrame is process CPU ÷ frames processed over the clean
// windows, in µs.
func cleanCPUPerFrame(ws []cpuWindow, clean []bool) float64 {
	var cpu, frames int64
	for i, w := range ws {
		if clean[i] {
			cpu += w.cpu
			frames += w.frames
		}
	}
	return float64(cpu) / 1e3 / float64(frames)
}

// cleanLatencyP50 is the median due→event latency, in ms, of the frames
// due in the clean windows from start.
func (b *bench) cleanLatencyP50(start int64, clean []bool) float64 {
	var lat []float64
	for _, c := range b.cams {
		for seq := 1; seq < c.fixedEnd && seq < c.marked; seq++ {
			if w := (c.due[seq] - start) / int64(window); w >= 0 && w < int64(len(clean)) && clean[w] {
				lat = append(lat, float64(c.event[seq]-c.due[seq])/1e6)
			}
		}
	}
	return quantile(lat, 0.5)
}
