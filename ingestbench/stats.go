package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics (the "type 7" estimator).
// xs is sorted in place; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// lateFraction is the share of offered frames whose event came more
// than limit after the frame was due. Each failed frame counts as late
// and as offered; latencies holds the frames that completed.
func lateFraction(latencies []float64, failed int, limit float64) float64 {
	offered := len(latencies) + failed
	if offered == 0 {
		return math.NaN()
	}
	late := failed
	for _, l := range latencies {
		if l > limit {
			late++
		}
	}
	return float64(late) / float64(offered)
}

// accounting is the exactly-once ledger of one run: what the cameras
// sent and had acknowledged, and what the router accepted and processed.
type accounting struct {
	Sent, Acked, Dups   int64
	Accepted, Processed int64
	NackedSeq           int64
}

// check returns nil when every sent frame was acknowledged once,
// accepted once and processed once, with no sequence rejection.
func (a accounting) check() error {
	switch {
	case a.Acked != a.Sent:
		return fmt.Errorf("acked %d of %d frames sent", a.Acked, a.Sent)
	case a.Dups != 0:
		return fmt.Errorf("%d duplicate acks", a.Dups)
	case a.NackedSeq != 0:
		return fmt.Errorf("%d sequence NACKs", a.NackedSeq)
	case a.Accepted != a.Sent:
		return fmt.Errorf("router accepted %d of %d frames sent", a.Accepted, a.Sent)
	case a.Processed != a.Accepted:
		return fmt.Errorf("router processed %d of %d frames accepted", a.Processed, a.Accepted)
	}
	return nil
}

// falseAlarms counts the declarations that are not the first one at or
// after a drift point and before the next. Both slices are ascending
// frame indices; entries at or beyond end (frames processed) are
// ignored.
func falseAlarms(points, decls []int, end int) int {
	first := make(map[int]bool)
	for k, p := range points {
		if p >= end {
			break
		}
		next := end
		if k+1 < len(points) && points[k+1] < end {
			next = points[k+1]
		}
		if i := sort.SearchInts(decls, p); i < len(decls) && decls[i] < next {
			first[decls[i]] = true
		}
	}
	n := 0
	for _, d := range decls {
		if d < end && !first[d] {
			n++
		}
	}
	return n
}
