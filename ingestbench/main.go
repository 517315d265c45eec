// Command ingestbench is the end-to-end ingest benchmark: it stands up
// the production ingest stack of `driftserve -ingest-addr` in one
// process (BDD-analog models, a dynamic sharded fleet, the router at
// batch 1, the TCP server and the 2 ms pump loop) and drives it from an
// open-loop, two-camera load generator over loopback TCP.
//
// Run it from the repository root:
//
//	bash ingestbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics instead,
// from a run that also records spans and replays the run's frames
// through each layer. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/ingest"
)

// workload is one traffic mix.
type workload struct {
	rate     float64 // frames/s per camera in the fixed-rate phase
	selector core.SelectorKind
	scripted bool // BDD lap stream (scripted drifts) or one condition
}

var workloads = map[string]workload{
	"steady": {rate: 1500, selector: core.SelectorMSBO},
	"drift":  {rate: 400, selector: core.SelectorMSBI, scripted: true},
}

const (
	cameras       = 2
	lateLimitMS   = 100
	runDeadline   = 170 * time.Second
	pumpHangAfter = 30 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: steady or drift")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same frames")
	seconds := flag.Float64("seconds", 20, "measured seconds: 9/10 fixed-rate phase, 1/10 saturation phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "ingestbench: need --workload steady|drift, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Println("host:", hostRecord())

	b := &bench{name: *name, wl: wl, seed: *seed, traced: *traced == 1, clk: clock{base: time.Now()},
		fixedStageSeconds: map[string]float64{}}
	b.fixedDur = int64(*seconds * 0.9 * 1e9)
	b.satDur = int64(*seconds * 0.1 * 1e9)
	go b.watchdog()
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingestbench:", err)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "ingestbench:", jerr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// bench is one run.
type bench struct {
	name     string
	wl       workload
	seed     int64
	traced   bool
	clk      clock
	fixedDur int64
	satDur   int64

	st   *stack
	rep  *replication
	cams []*camera

	// For the watchdog: the stack once set up, the timed frames offered
	// so far, and the current phase's name.
	live    atomic.Pointer[stack]
	offered atomic.Int64
	phase   atomic.Value

	trc *tracing

	// Backpressure and stage time of the fixed-rate phase, for the
	// traced run.
	fixedNacks, fixedRetries int64
	fixedStageSeconds        map[string]float64
}

// enter names the run's current phase for the hang report and logs
// the time each phase starts.
func (b *bench) enter(phase string) {
	b.phase.Store(phase)
	fmt.Fprintf(os.Stderr, "ingestbench: +%.2fs %s\n", float64(b.clk.now())/1e9, phase)
}

// watchdog ends a run whose pump fails, stops making progress or
// overruns its deadline: it prints the goroutine dump, reports every
// unprocessed frame as failed and exits non-zero, so the check never
// hangs.
func (b *bench) watchdog() {
	for range time.Tick(100 * time.Millisecond) {
		now := b.clk.now()
		var what, why string
		st := b.live.Load()
		if st != nil {
			if s := st.inPump.Load(); s != 0 && time.Duration(now-s) > pumpHangAfter {
				what, why = "HANG", fmt.Sprintf("Router.Pump in flight for %v", time.Duration(now-s).Round(time.Millisecond))
			}
			if err := st.pumpErr.Load(); err != nil {
				what, why = "PUMP ERROR", fmt.Sprintf("Router.Pump: %v", *err)
			}
		}
		if time.Duration(now) > runDeadline {
			what, why = "HANG", fmt.Sprintf("run deadline %v passed", runDeadline)
		}
		if why == "" {
			continue
		}
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Printf("%s during %v: %s\n--- goroutine dump ---\n%s--- end of dump ---\n", what, b.phase.Load(), why, buf)
		offered := b.offered.Load()
		var processed int64
		if st != nil {
			processed = st.processed.Load()
		}
		failed := offered - processed
		if failed < 1 {
			failed = 1
		}
		out, _ := json.Marshal(result{Attempted: max(offered, 1), Failed: failed, Metrics: map[string]metric{}})
		fmt.Println(string(out))
		os.Exit(1)
	}
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostRecord names the machine a result came from.
func hostRecord() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
}

// waitProcessed blocks until the fleet has processed n frames in total.
func (b *bench) waitProcessed(n int64) {
	for b.st.processed.Load() < n {
		time.Sleep(time.Millisecond)
	}
}

func (b *bench) sentTotal() int64 {
	var n int64
	for _, c := range b.cams {
		n += int64(c.sent)
	}
	return n
}

// eachCamera runs fn on one goroutine per camera and waits for all.
func (b *bench) eachCamera(fn func(c *camera)) {
	var wg sync.WaitGroup
	for _, c := range b.cams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

func (b *bench) run() (result, error) {
	res := result{Attempted: 1, Metrics: map[string]metric{}}
	ds := newDataset()
	capacity := func(phaseNanos int64, rate float64) int { return int(float64(phaseNanos) / 1e9 * rate) }
	for i := 0; i < cameras; i++ {
		n := 1 + capacity(b.fixedDur, b.wl.rate) + capacity(b.satDur, 20000) + 16
		b.cams = append(b.cams, newCamera(i, newSource(ds, b.seed, i, b.wl.scripted), n))
	}
	b.trc = newTracing(b.traced)
	byTenant := map[string]*camera{}
	for _, c := range b.cams {
		byTenant[c.tenant] = c
	}
	// onPump runs on the pump goroutine after every non-empty pump and
	// stamps the event time of each frame the pump completed.
	onPump := func(p pumpRec, s ingest.Stats) {
		var links []string
		for _, t := range s.Tenants {
			c := byTenant[t.Tenant]
			if c == nil {
				continue
			}
			from := c.marked
			for seq := c.marked; seq < int(t.Processed) && seq < len(c.event); seq++ {
				c.event[seq] = p.end
				c.pumpStart[seq] = p.start
			}
			c.marked = int(t.Processed)
			if from < c.marked && b.trc.active(p.start) {
				links = append(links, fmt.Sprintf("%s:%d-%d", c.tenant, from, c.marked-1))
			}
		}
		b.trc.pump(p, links)
	}

	b.enter("setup")
	setupStart := time.Now()
	st, err := newStack(b.clk, b.wl.selector, onPump)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	b.st = st
	b.live.Store(st)
	setup := time.Since(setupStart).Seconds()

	// Deterministic slot assignment: camera 0 attaches (slot 0) before
	// camera 1 (slot 1), each with one frame, before timing starts.
	b.enter("attach")
	for _, c := range b.cams {
		cl, err := ingest.Dial(ingest.ClientConfig{Addr: st.addr, Tenant: c.tenant})
		if err != nil {
			return res, fmt.Errorf("dial: %w", err)
		}
		defer cl.Close()
		c.client = cl
		if !c.send(b.clk, b.clk.now(), nil, nil) {
			return res, fmt.Errorf("attach frame of %s: %w", c.tenant, c.sendErr)
		}
		b.waitProcessed(b.sentTotal())
	}

	// Fixed-rate phase.
	b.enter("fixed-rate phase")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fixedStart := b.clk.now() + int64(10*time.Millisecond)
	fixedEnd := fixedStart + b.fixedDur
	processed0 := st.processed.Load()
	cpu0 := cpuNanos()
	b.trc.setWindows(fixedStart, fixedEnd)
	sampler := sampleWindows(st, fixedStart, fixedEnd)
	b.eachCamera(func(c *camera) { c.runFixed(b.clk, fixedStart, fixedEnd, b.wl.rate, &b.offered, b.trc) })
	b.waitProcessed(b.sentTotal())
	cpu1 := cpuNanos()
	fixedDrained := b.clk.now()
	runtime.ReadMemStats(&ms1)
	windows := sampler.close()
	fixedStats := st.mon.Stats()
	b.fixedNacks = st.router.Stats().NackedFull
	for _, c := range b.cams {
		b.fixedRetries += c.client.Stats().Retries
		for _, sg := range st.router.Tracer(c.tenant).Snapshot().Stages {
			b.fixedStageSeconds[sg.Stage] += sg.SumSeconds
		}
	}
	fixedFrames := st.processed.Load() - processed0

	// Saturation phase.
	b.enter("saturation phase")
	satStart := b.clk.now()
	satEnd := satStart + b.satDur
	b.eachCamera(func(c *camera) { c.runSaturation(b.clk, satEnd, &b.offered, b.trc) })
	b.enter("drain")
	b.waitProcessed(b.sentTotal())
	rss := peakRSSMiB() // of set-up and traffic; what follows is the harness's

	// The replication layers (per-layer metrics): a few back-to-back
	// cycles ship the drained fleet to a fresh standby.
	b.enter("replication probe")
	if b.rep, err = newReplication(st, st.base); err != nil {
		return res, fmt.Errorf("replication probe: %w", err)
	}
	for i := 0; i < keepCaptures; i++ {
		if err := b.rep.cycle(b.clk); err != nil {
			return res, fmt.Errorf("replication probe: %w", err)
		}
	}
	b.rep.close()

	for _, c := range b.cams {
		c.client.Close()
	}
	if err := st.close(); err != nil {
		return res, fmt.Errorf("closing stack: %w", err)
	}

	// Correctness.
	b.enter("reference pass")
	var problems []string
	if err := st.pumpErr.Load(); err != nil {
		problems = append(problems, fmt.Sprintf("Router.Pump: %v", *err))
	}
	acct := b.accounting()
	if err := acct.check(); err != nil {
		problems = append(problems, "accounting: "+err.Error())
	}
	refs := b.referencePass(ds)
	var hits, evaluated int
	for i, r := range refs {
		hits += r.hits
		evaluated += r.evaluated
		if r.err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", b.cams[i].tenant, r.err))
		}
	}

	// Failures: Send errors stop a camera, frames left unprocessed, and
	// every frame of a tenant whose results differ from the reference.
	var failed int64
	attempted := b.offered.Load()
	for i, c := range b.cams {
		n := int64(c.sent - c.marked)
		if refs[i].err != nil {
			n = int64(c.sent - 1) // every timed frame of the tenant
		}
		if c.sendErr != nil {
			n++ // the frame whose Send failed
			problems = append(problems, fmt.Sprintf("%s: send: %v", c.tenant, c.sendErr))
		}
		failed += n
	}
	if failed > attempted {
		failed = attempted
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "ingestbench: INCORRECT:", p)
	}
	b.enter("checked")
	res.Correct = len(problems) == 0
	res.Attempted = max(attempted, 1)
	res.Failed = failed

	// Whole-phase figures, as they stand. A training stalls every tenant
	// for about half a second and how many a run holds depends on its
	// seed, so these swing from seed to seed more than any bound a
	// regression gate could use: the traced run reports them per layer.
	var lat []float64
	fixedOffered := 0
	for _, c := range b.cams {
		fixedOffered += c.fixedEnd - 1
		for seq := 1; seq < c.fixedEnd && seq < c.marked; seq++ {
			lat = append(lat, float64(c.event[seq]-c.due[seq])/1e6)
		}
	}
	satFrames := b.sentTotal() - fixedFrames - int64(cameras)
	whole := map[string]metric{
		"fps_max":              {float64(b.processedIn(satStart, satEnd)) / (float64(satEnd-satStart) / 1e9), "frames/s"},
		"lat_p99_ms":           {quantile(append([]float64(nil), lat...), 0.99), "ms"},
		"late_frac":            {lateFraction(lat, fixedOffered-len(lat), lateLimitMS), "ratio"},
		"false_alarms_per_10k": {b.falseAlarmRate(refs), "per10k"},
	}
	fmt.Printf("fixed-rate phase: %d frames offered, %d processed, %.1f us CPU/frame, p99 %.1f ms, late %.4f; fleet: %d drifts, %d selections, %d trainings\n",
		fixedOffered, fixedFrames, float64(cpu1-cpu0)/1e3/float64(max(fixedFrames, 1)), whole["lat_p99_ms"].Value,
		whole["late_frac"].Value, fixedStats.DriftsDetected, fixedStats.ModelsSelected, fixedStats.ModelsTrained)
	fmt.Printf("saturation phase: %d frames sent, %.0f frames/s processed; false alarms %.2f per 10k frames\n",
		satFrames, whole["fps_max"].Value, whole["false_alarms_per_10k"].Value)
	fmt.Printf("replication: %d cycles, p50 %.3f ms, p90 %.3f ms\n",
		len(b.rep.cycles), quantile(b.cycleMillis(), 0.5), quantile(b.cycleMillis(), 0.9))

	// End-to-end metrics. The fixed-rate figures cover the phase's clean
	// windows (see windows.go).
	clean, nClean := cleanWindows(st.pumps, fixedStart, len(windows))
	fmt.Printf("clean windows: %d of %d\n", nClean, len(clean))
	if !b.traced {
		b.enter("detection probe")
		res.Metrics = map[string]metric{
			"setup_s":           {setup, "s"},
			"cpu_us_per_frame":  {cleanCPUPerFrame(windows, clean), "us"},
			"lat_p50_ms":        {b.cleanLatencyP50(fixedStart, clean), "ms"},
			"rss_peak_mb":       {rss, "MiB"},
			"query_accuracy":    {float64(hits) / float64(max(evaluated, 1)), "ratio"},
			"detect_lag_frames": {b.detectionProbe(ds), "frames"},
		}
		b.enter("done")
		return res, nil
	}
	b.enter("ladder passes")
	res.Metrics = b.perLayer(ds, ms0, ms1, windows, fixedStart, fixedDrained, fixedFrames)
	for k, v := range whole {
		res.Metrics[k] = v
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// A layer the run did not reach (say, no selection happened).
			fmt.Fprintf(os.Stderr, "ingestbench: %s not measured in this run; reported as 0\n", k)
			res.Metrics[k] = metric{0, v.Unit}
		}
	}
	return res, nil
}
