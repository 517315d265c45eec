package main

import (
	"videodrift"
	"videodrift/internal/dataset"
	"videodrift/internal/vidsim"
)

// Detection probe, behind detect_lag_frames: probeTrials fresh Drift
// Inspectors each see probePre frames of one condition, over that
// condition's provisioned model, then the transition to the next BDD
// condition, from streams seeded by the workload seed. On steady every
// trial cuts from the deployed model's condition, the one steady
// streams, to the next; on drift the trials cycle through the lap's
// four transitions. The lag is the frames from the cut to the first
// declaration (probePost when none comes); declarations before the cut
// reset the inspector. The live fleet's own lag after the scripted
// drift points of drift depends on where each drift falls in the
// pipeline's selection and training, and spread 0.36 over 5 seeds.
const (
	probeTrials = 128
	probePre    = 400
	probePost   = 400
)

func (b *bench) detectionProbe(ds *dataset.Dataset) float64 {
	models := b.st.env.Registry.Entries() // one per condition, in order
	var sum float64
	for t := 0; t < probeTrials; t++ {
		pre := 0
		if b.wl.scripted {
			pre = t % len(ds.Sequences)
		}
		post := (pre + 1) % len(ds.Sequences)
		seed := b.seed + int64(t)*lapSeedStep
		s := vidsim.NewStream(ds.W, ds.H, seed,
			vidsim.Segment{Cond: ds.Sequences[pre], Length: probePre},
			vidsim.Segment{Cond: ds.Sequences[post], Length: probePost, TransitionLen: ds.TransitionLen})
		det := videodrift.NewDetector(models[pre], b.st.opts.Pipeline.Seed+int64(t))
		lag := probePost
		for k := 0; ; k++ {
			f, ok := s.Next()
			if !ok {
				break
			}
			if !det.Observe(f) {
				continue
			}
			if k >= probePre {
				lag = k - probePre
				break
			}
			det.Reset()
		}
		sum += float64(lag)
	}
	return sum / probeTrials
}
