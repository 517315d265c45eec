package main

import (
	"fmt"
	"reflect"

	"videodrift"
	"videodrift/internal/dataset"
	"videodrift/internal/telemetry"
)

// refResult is one tenant's reference pass: its frames regenerated and
// fed in-process through a videodrift.Monitor with the fleet's options
// and the tenant's slot seed.
type refResult struct {
	frames    int   // frames replayed
	evaluated int   // frames whose prediction was checked (every evalStride-th)
	hits      int   // checked predictions matching the annotator
	decls     []int // frames the reference declared a drift on
	drifts    []int // scripted drift points of the replayed frames
	err       error // first mismatch with the fleet
}

// evalStride is how often the reference pass checks a prediction
// against the annotator, whose labelling costs more than the frame's
// processing; experiments.DefaultConfig's EvalStride does the same.
const evalStride = 4

// referencePass replays every tenant's processed frames and compares
// the final metrics, the deployed model, the model registry and the
// drift declarations with the fleet's. The fleet is idle by now. The
// tenants replay one after the other: their monitors share the
// provisioned model entries, whose classifiers are not safe for
// concurrent use.
func (b *bench) referencePass(ds *dataset.Dataset) []refResult {
	out := make([]refResult, len(b.cams))
	for i, c := range b.cams {
		out[i] = b.reference(ds, c, i)
	}
	return out
}

func (b *bench) reference(ds *dataset.Dataset, c *camera, slot int) refResult {
	st := b.st
	opts := st.opts.Options
	opts.Tracer = nil
	opts.Pipeline.Seed += int64(slot) // ShardedMonitor.Attach seeds slot i with Seed+i
	mon := videodrift.NewMonitor(st.env.Registry.Entries(), st.env.Labeler(), opts)
	labeler := st.env.Labeler()
	src := newSource(ds, b.seed, c.idx, b.wl.scripted)
	r := refResult{frames: c.marked}
	for k := 0; k < c.marked; k++ {
		f := src.next()
		ev := mon.Process(f)
		if ev.Drift {
			r.decls = append(r.decls, k)
		}
		if k%evalStride == 0 {
			r.evaluated++
			if ev.Prediction == labeler(f) {
				r.hits++
			}
		}
	}
	r.drifts = src.drifts

	fleet := st.mon.Shard(slot)
	switch {
	case fleet == nil:
		r.err = fmt.Errorf("slot %d is not attached", slot)
	case st.mon.ShardStats(slot) != mon.Stats():
		r.err = fmt.Errorf("metrics differ: fleet %+v, reference %+v", st.mon.ShardStats(slot), mon.Stats())
	case fleet.Current() != mon.Current():
		r.err = fmt.Errorf("deployed model differs: fleet %q, reference %q", fleet.Current(), mon.Current())
	case !reflect.DeepEqual(fleet.Models(), mon.Models()):
		r.err = fmt.Errorf("model registries differ: fleet %v, reference %v", fleet.Models(), mon.Models())
	case !reflect.DeepEqual(declarations(st.router.Tracer(c.tenant)), r.decls):
		r.err = fmt.Errorf("drift declarations differ: fleet %v, reference %v", declarations(st.router.Tracer(c.tenant)), r.decls)
	}
	return r
}

// declarations lists the frames of a tenant tracer's drift_declared
// events.
func declarations(tr *telemetry.Tracer) []int {
	var out []int
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindDriftDeclared {
			out = append(out, e.Frame)
		}
	}
	return out
}

// falseAlarmRate counts declarations other than the first after a
// scripted drift point, per 10k frames processed; without scripted
// drifts every declaration counts.
func (b *bench) falseAlarmRate(refs []refResult) float64 {
	var alarms, frames int
	for _, r := range refs {
		alarms += falseAlarms(r.drifts, r.decls, r.frames)
		frames += r.frames
	}
	return float64(alarms) * 1e4 / float64(max(frames, 1))
}
