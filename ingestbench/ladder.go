package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"videodrift"
	"videodrift/internal/dataset"
	"videodrift/internal/ingest"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// ladderFrames bounds the frames each ladder pass replays per variant.
const ladderFrames = 1500

func (b *bench) accounting() accounting {
	var a accounting
	for _, c := range b.cams {
		cs := c.client.Stats()
		a.Sent += int64(c.sent)
		a.Acked += cs.Acked
		a.Dups += cs.Dups
	}
	rs := b.st.router.Stats()
	a.Accepted, a.Processed, a.NackedSeq = rs.Accepted, rs.Processed, rs.NackedSeq
	return a
}

// processedIn counts the frames whose event fell in [start, end).
func (b *bench) processedIn(start, end int64) int {
	n := 0
	for _, c := range b.cams {
		for seq := 0; seq < c.marked; seq++ {
			if e := c.event[seq]; e >= start && e < end {
				n++
			}
		}
	}
	return n
}

func (b *bench) cycleMillis() []float64 {
	var out []float64
	for _, c := range b.rep.cycles {
		out = append(out, float64(c.end-c.start)/1e6)
	}
	return out
}

// timeIt returns fn's wall time in µs.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// perLayer computes the traced run's per-layer metrics: span-derived
// ingest numbers over the fixed-rate phase, ladder passes replaying the
// run's frames and captures through each layer's exported entry point,
// the fleet's own stage histograms and counters, and the accounting of
// layer self time against measured busy time.
func (b *bench) perLayer(ds *dataset.Dataset, ms0, ms1 runtime.MemStats, windows []cpuWindow, start, end, frames int64) map[string]metric {
	st := b.st
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	fixedFrames := float64(max(frames, 1))

	// ingest: spans of the fixed-rate phase.
	var send, wait, late []float64
	for _, c := range b.cams {
		for seq := 1; seq < c.fixedEnd && seq < c.marked; seq++ {
			send = append(send, float64(c.ack[seq]-c.start[seq])/1e3)
			wait = append(wait, float64(c.pumpStart[seq]-c.ack[seq])/1e6)
			late = append(late, float64(c.start[seq]-c.due[seq])/1e6)
		}
	}
	var pumpNanos int64
	var pumpCount, pumpFrames, queueMax int
	for _, p := range st.pumps {
		if p.start >= start && p.end <= end {
			pumpNanos += p.end - p.start
			pumpCount++
			pumpFrames += p.frames
			queueMax = max(queueMax, p.queued)
		}
	}
	sendSum := 0.0
	for _, v := range send {
		sendSum += v
	}
	put("ingest.send_us_p50", quantile(send, 0.5), "us")
	put("ingest.send_us_p99", quantile(send, 0.99), "us")
	put("ingest.nack_full", float64(b.fixedNacks), "count")
	put("ingest.retries", float64(b.fixedRetries), "count")
	put("ingest.queue_wait_ms_p50", quantile(wait, 0.5), "ms")
	put("ingest.queue_depth_max", float64(queueMax), "frames")
	put("ingest.pump_us_per_frame", float64(pumpNanos)/1e3/float64(max(pumpFrames, 1)), "us")
	put("ingest.pump_busy_frac", float64(pumpNanos)/float64(end-start), "ratio")
	put("ingest.frames_per_pump", float64(pumpFrames)/float64(max(pumpCount, 1)), "frames")
	put("gen.late_ms_p99", quantile(late, 0.99), "ms")

	// Ladder passes over camera 0's frames.
	src := newSource(ds, b.seed, 0, b.wl.scripted)
	n := min(ladderFrames, b.cams[0].marked)
	lframes := make([]vidsim.Frame, n)
	for i := range lframes {
		lframes[i] = src.next()
	}
	var enc, dec []float64
	wireBytes := 0
	for seq, f := range lframes {
		var wire []byte
		enc = append(enc, timeIt(func() { wire = ingest.EncodeFrame(ingest.MsgFromFrame("cam0", uint64(seq), f)) }))
		wireBytes = len(wire)
		dec = append(dec, timeIt(func() {
			_, payload, err := ingest.DecodeMsg(wire)
			if err == nil {
				_, err = ingest.DecodeFrameMsg(payload)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ingestbench: ladder decode:", err)
			}
		}))
	}
	put("ingest.encode_us", quantile(enc, 0.5), "us")
	put("ingest.decode_us", quantile(dec, 0.5), "us")
	put("ingest.wire_bytes_per_frame", float64(wireBytes), "bytes")

	// Monitor variants, fed the same frames interleaved so each sees the
	// same machine state, in an order that rotates from frame to frame
	// so none always runs first on a cold frame: bare, with forensics,
	// with a tracer, and a 1-shard fleet at batch 1 (bare options, so the
	// difference to the bare monitor is supervision).
	bare := st.opts.Options
	bare.Tracer = nil
	bare.Forensics.Enabled = false
	withForensics := bare
	withForensics.Forensics.Enabled = true
	withTracer := bare
	withTracer.Tracer = telemetry.New(telemetry.Config{RingSize: ringSize})
	entries, labeler := st.env.Registry.Entries(), st.env.Labeler()
	monBare := videodrift.NewMonitor(entries, labeler, bare)
	monFor := videodrift.NewMonitor(entries, labeler, withForensics)
	monTr := videodrift.NewMonitor(entries, labeler, withTracer)
	fleetOpts := st.opts
	fleetOpts.Options = bare
	fleetOpts.Shards = 1
	fleet := videodrift.NewShardedMonitor(entries, labeler, fleetOpts)
	var tBare, tFor, tTr, tFleet []float64
	batch := [][]vidsim.Frame{{}}
	variants := []struct {
		times   *[]float64
		process func(f vidsim.Frame)
	}{
		{&tBare, func(f vidsim.Frame) { monBare.Process(f) }},
		{&tFor, func(f vidsim.Frame) { monFor.Process(f) }},
		{&tTr, func(f vidsim.Frame) { monTr.Process(f) }},
		{&tFleet, func(f vidsim.Frame) {
			batch[0] = append(batch[0][:0], f)
			if _, err := fleet.ProcessBatches(batch); err != nil {
				fmt.Fprintln(os.Stderr, "ingestbench: ladder fleet:", err)
			}
		}},
	}
	for i, f := range lframes {
		for k := range variants {
			v := variants[(i+k)%len(variants)]
			*v.times = append(*v.times, timeIt(func() { v.process(f) }))
		}
	}
	monitorP50 := quantile(tBare, 0.5)
	fleetP50 := quantile(tFleet, 0.5)
	put("monitor.process_us_p50", monitorP50, "us")
	put("fleet.process_us_p50", fleetP50, "us")
	put("fleet.supervise_us_p50", fleetP50-monitorP50, "us")
	put("forensics.us_p50", quantile(tFor, 0.5)-monitorP50, "us")
	put("telemetry.us_p50", quantile(tTr, 0.5)-monitorP50, "us")

	// core: the tenants' own stage histograms and the fleet's counters.
	stage := func(name string) (p50, sum, peak float64, count uint64) {
		for _, c := range b.cams {
			for _, s := range st.router.Tracer(c.tenant).Snapshot().Stages {
				if s.Stage == name && s.Count > 0 {
					p50 += s.P50Seconds * float64(s.Count)
					sum += s.SumSeconds
					peak = max(peak, s.MaxSeconds)
					count += s.Count
				}
			}
		}
		if count > 0 {
			p50 /= float64(count) // count-weighted mean of the tenants' p50s
		}
		return
	}
	var sampled uint64
	for _, c := range b.cams {
		sampled += st.router.Tracer(c.tenant).Snapshot().MartingaleUpdates
	}
	classifyP50, _, _, _ := stage("classify")
	put("core.classify_us_p50", classifyP50*1e6, "us")
	for _, s := range []struct{ stage, name string }{
		{"featurize", "core.featurize_us_p50"}, {"knn_score", "core.knn_score_us_p50"},
		{"p_value", "core.p_value_us_p50"}, {"martingale_update", "core.martingale_us_p50"},
	} {
		p50, _, _, _ := stage(s.stage)
		put(s.name, p50*1e6, "us")
	}
	put("core.sampled_frames", float64(sampled), "frames")
	selP50, _, _, _ := stage("select")
	trainP50, _, trainMax, _ := stage("train")
	put("core.select_ms_p50", selP50*1e3, "ms")
	put("core.train_ms_p50", trainP50*1e3, "ms")
	put("core.train_ms_max", trainMax*1e3, "ms")
	fm := st.mon.Stats()
	put("core.selections", float64(fm.ModelsSelected), "count")
	put("core.trainings", float64(fm.ModelsTrained), "count")
	put("core.drifts", float64(fm.DriftsDetected), "count")
	put("core.selecting_frames", float64(fm.SelectingFrames), "frames")
	put("core.training_frames", float64(fm.TrainingFrames), "frames")
	put("core.selection_hit_ratio", float64(fm.ModelsSelected)/float64(max(fm.DriftsDetected, 1)), "ratio")

	// store: capture timing from the pump loop; codec ladder over the
	// retained captures.
	var capMs []float64
	var capSum float64
	for _, c := range st.captures {
		capMs = append(capMs, float64(c.end-c.start)/1e6)
		capSum += float64(c.end-c.start) / 1e3
	}
	put("store.capture_ms_p50", quantile(capMs, 0.5), "ms")
	var diffMs, encMs, decMs, applyMs, deltaBytes []float64
	kept := b.rep.kept
	for i := 1; i < len(kept); i++ {
		base, next := kept[i-1], kept[i]
		crcs, err := store.EntryCRCs(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingestbench: ladder crcs:", err)
			break
		}
		var d *store.Delta
		var data []byte
		var back *store.Delta
		diffMs = append(diffMs, timeIt(func() { d, _, err = store.DiffCheckpoints(base, crcs, next) })/1e3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingestbench: ladder diff:", err)
			break
		}
		encMs = append(encMs, timeIt(func() { data, err = store.EncodeDelta(d) })/1e3)
		deltaBytes = append(deltaBytes, float64(len(data)))
		decMs = append(decMs, timeIt(func() { back, err = store.DecodeDelta(data) })/1e3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingestbench: ladder decode delta:", err)
			break
		}
		applyMs = append(applyMs, timeIt(func() { _, _, err = store.ApplyDelta(base, crcs, back) })/1e3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingestbench: ladder apply:", err)
			break
		}
	}
	fullBytes := 0
	if len(kept) > 0 {
		if data, err := store.Encode(kept[len(kept)-1]); err == nil {
			fullBytes = len(data)
		}
	}
	put("store.delta_bytes_p50", quantile(deltaBytes, 0.5), "bytes")
	put("store.full_bytes", float64(fullBytes), "bytes")
	put("store.diff_ms_p50", quantile(diffMs, 0.5), "ms")
	put("store.encode_delta_ms_p50", quantile(encMs, 0.5), "ms")
	put("store.decode_delta_ms_p50", quantile(decMs, 0.5), "ms")
	put("store.apply_delta_ms_p50", quantile(applyMs, 0.5), "ms")

	// replica: the probe's timed cycles and the primary tracer's
	// replica_delta_sent events.
	cyc := b.cycleMillis()
	var cycleSum float64
	for _, v := range cyc {
		cycleSum += v * 1e3
	}
	var cycleWall int64
	if len(b.rep.cycles) > 0 {
		cycleWall = b.rep.cycles[len(b.rep.cycles)-1].end - b.rep.cycles[0].start
	}
	deltas, fulls := 0, 0
	for _, e := range b.rep.tracer.Events() {
		if e.Kind != telemetry.KindReplicaDeltaSent {
			continue
		}
		if e.Reason == "delta" {
			deltas++
		} else {
			fulls++
		}
	}
	put("replica.cycle_ms_p50", quantile(cyc, 0.5), "ms")
	put("replica.cycle_ms_p90", quantile(cyc, 0.9), "ms")
	put("replica.busy_frac", cycleSum*1e3/float64(max(cycleWall, 1)), "ratio")
	put("replica.lag_gens_max", float64(b.rep.lagMax), "generations")
	put("replica.delta_sends", float64(deltas), "count")
	put("replica.full_sends", float64(fulls), "count")

	// Go runtime over the fixed-rate phase.
	put("go.gc_cycles_per_kframe", float64(ms1.NumGC-ms0.NumGC)*1e3/fixedFrames, "count")
	put("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	put("go.alloc_kib_per_frame", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/fixedFrames, "KiB")

	// Accounting: layer self time × calls against measured busy time:
	// pump and send time of the fixed-rate phase, and every cycle.
	busy := float64(pumpNanos)/1e3 + sendSum + cycleSum
	perFrame := fleetP50 + quantile(enc, 0.5) + quantile(dec, 0.5)
	storePerCycle := quantile(diffMs, 0.5) + quantile(encMs, 0.5) + quantile(decMs, 0.5) + quantile(applyMs, 0.5)
	layers := []struct {
		name  string
		micro float64
	}{
		{"fleet.process+ingest.encode+ingest.decode", perFrame * fixedFrames},
		{"core.select", b.fixedStageSeconds["select"] * 1e6},
		{"core.train", b.fixedStageSeconds["train"] * 1e6},
		{"store.capture", capSum},
		{"store codec", storePerCycle * 1e3 * float64(len(b.rep.cycles))},
	}
	explained := 0.0
	fmt.Printf("accounting: busy %.1f ms (pump %.1f, send %.1f, cycle %.1f)\n",
		busy/1e3, float64(pumpNanos)/1e6, sendSum/1e3, cycleSum/1e3)
	for _, l := range layers {
		explained += l.micro
		fmt.Printf("accounting:   %-44s %10.1f ms\n", l.name, l.micro/1e3)
	}
	unexplained := (busy - explained) / busy
	fmt.Printf("accounting: explained %.1f ms, unexplained %.1f%%\n", explained/1e3, unexplained*100)
	put("trace.unexplained_frac", unexplained, "ratio")
	put("trace.overhead_us_per_frame", b.trc.overheadMicros(windows), "us")

	var sendSpans []span
	for _, c := range b.cams {
		sendSpans = append(sendSpans, c.spans...)
	}
	path := fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", b.name, b.seed)
	if n, err := writeSpans(path, replicationSpans(b.rep.cycles, st.captures), sendSpans, b.trc.pumpSpans); err != nil {
		fmt.Fprintln(os.Stderr, "ingestbench: writing spans:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", n, path)
	}
	return m
}
